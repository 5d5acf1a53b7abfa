// Package forecast implements the deployable NWS forecaster role: the
// request/reply server answering §2.1's four-step forecast flow over a
// deployment's memory servers, discovered through the unified query
// plane. The statistical machinery itself — the predictor battery and
// the Prediction vocabulary — lives in the leaf package predict.
package forecast
