package codec

import "corrfuse/internal/triple"

// The request/response shapes of the hot endpoints live here so both the
// serving layer (which aliases them into its public API) and the codec's
// encoders/decoders can reference them without an import cycle. The JSON
// tags are the wire contract; the hand-rolled paths must stay in lockstep
// with them (the codec tests diff both directions against encoding/json).

// Observation is one ingested claim: a source asserting a triple, with an
// optional gold label ("true" or "false") that joins the training set at
// the next re-fusion.
type Observation struct {
	Source    string `json:"source"`
	Subject   string `json:"subject"`
	Predicate string `json:"predicate"`
	Object    string `json:"object"`
	Label     string `json:"label,omitempty"`
}

// ObserveRequest is the /v1/observe body: either a single top-level
// Observation or {"observations": [...]} — the serving layer rejects
// bodies carrying both.
type ObserveRequest struct {
	Observation
	Observations []Observation `json:"observations"`
}

// ObserveResult reports the freshest probability after applying one claim.
type ObserveResult struct {
	Triple      triple.Triple `json:"triple"`
	Probability float64       `json:"probability"`
	// Live reports that the probability came from the live scorer, the
	// snapshot's model over the claimed pattern (false: the snapshot's
	// batch value, e.g. for unsupervised methods).
	Live bool `json:"live"`
	// PendingSource reports that the claiming source is not yet in the
	// quality model; its evidence joins at the next re-fusion.
	PendingSource bool `json:"pendingSource,omitempty"`
}

// ScoreRequest asks for probabilities of a batch of triples (at most
// Config.MaxScoreTriples per request).
type ScoreRequest struct {
	Triples []triple.Triple `json:"triples"`
}

// ScoreResult is one scored triple of a batch.
type ScoreResult struct {
	Triple      triple.Triple `json:"triple"`
	Probability float64       `json:"probability"`
	// Basis is "snapshot" (frozen batch index), "live" (the snapshot's
	// model over the claimed pattern) or "unknown" (never observed;
	// probability is 0).
	Basis string `json:"basis"`
	// Accepted reports the snapshot's acceptance decision. It is present
	// exactly when Basis is "snapshot" (a rejected triple serializes as
	// false, not as an absent field) and omitted otherwise.
	Accepted *bool `json:"accepted,omitempty"`
}
