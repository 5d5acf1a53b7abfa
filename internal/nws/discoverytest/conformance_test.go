package discoverytest

import (
	"fmt"
	"testing"
	"time"

	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
)

// memoryProbe resolves series→owner and fetches directly through a
// query.Client — the baseline the other roles must match.
func memoryProbe(r *Rig) QueryFn {
	qc := query.New(r.User, NSHost)
	return func(series string) error {
		res := qc.FetchMany([]proto.SeriesRequest{{Series: series, Count: 1}})
		if res[0].Err != nil {
			return res[0].Err
		}
		if len(res[0].Samples) == 0 {
			return fmt.Errorf("series %s: resolved but empty", series)
		}
		return nil
	}
}

// forecastProbe asks the deployed forecaster for a prediction: the
// series→owner resolution under test happens inside the forecaster
// (its embedded query.Client), and its structured per-series errors
// travel back as typed wire codes.
func forecastProbe(r *Rig) QueryFn {
	fc := forecast.NewClient(r.User, Forecastern)
	// The forecaster's internal fetch may spend a full call timeout on a
	// dead backend before replying; the probe must outwait it.
	fc.Timeout = time.Minute
	return func(series string) error {
		res, err := fc.BatchForecast([]proto.SeriesRequest{{Series: series}})
		if err != nil {
			return err
		}
		if got := len(res); got != 1 {
			return fmt.Errorf("series %s: %d results for 1 query", series, got)
		}
		if res[0].Error != "" {
			return query.CodedError(res[0].Code, res[0].Error)
		}
		return nil
	}
}

// gatewayProbe is the end-user path: discover the gateway through the
// directory, then fetch through it. Discovery failures and per-series
// failures must both carry the structured query errors.
func gatewayProbe(r *Rig) QueryFn {
	return func(series string) error {
		gc, err := gateway.Connect(r.User, NSHost)
		if err != nil {
			return err
		}
		gc.Timeout = time.Minute // the gateway fans out with its own timeouts
		res, err := gc.FetchMany([]proto.SeriesRequest{{Series: series, Count: 1}})
		if err != nil {
			return err
		}
		if res[0].Err != nil {
			return res[0].Err
		}
		if len(res[0].Samples) == 0 {
			return fmt.Errorf("series %s: resolved but empty", series)
		}
		return nil
	}
}

func TestConformanceMemoryFetch(t *testing.T)        { RunConformance(t, memoryProbe) }
func TestConformanceForecastResolution(t *testing.T) { RunConformance(t, forecastProbe) }
func TestConformanceGatewayDiscovery(t *testing.T)   { RunConformance(t, gatewayProbe) }
