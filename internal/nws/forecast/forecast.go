// Package forecast implements the deployable NWS forecaster role: the
// request/reply server answering §2.1's four-step forecast flow over a
// deployment's memory servers, discovered through the unified query
// plane. The statistical machinery itself — the predictor battery and
// the Prediction vocabulary — lives in the leaf package predict.
//
// A forecast is predict.Run over the window fetched for that request,
// always. The server remembers, per series, the last window it replayed
// and the result, and skips the replay when the window it has just
// fetched is bit-equal to it; see Server for what is remembered, what
// validates it and how it is bounded.
package forecast
