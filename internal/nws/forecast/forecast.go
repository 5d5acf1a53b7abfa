// Package forecast implements the deployable NWS forecaster role: the
// request/reply server answering §2.1's four-step forecast flow over a
// deployment's memory servers, discovered through the unified query
// plane. The statistical machinery itself — the predictor battery and
// the Prediction vocabulary — lives in the leaf package predict.
//
// A forecast is predict.Run over the series' current window, always. The
// server remembers, per series, the last window it replayed, its result
// and the memory server's token for it; a fetch sends the token, and a
// window the memory server still holds comes back "unchanged", with no
// samples, and is answered from the memo. See Server for what is
// remembered, what validates it and how it is bounded.
package forecast
