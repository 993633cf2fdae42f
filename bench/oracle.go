//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"math"

	"corrfuse"
	"corrfuse/internal/index"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// tolerance is how far a served probability may sit from the oracle's.
const tolerance = 1e-9

// oracle is the in-process reference the socket outputs are checked
// against: a model trained by the library on the same store, with the
// options cmd/fused derives from the flags the harness passes it.
type oracle struct {
	d   *triple.Dataset
	idx *index.Index // the model's frozen scores, ranked per subject
	// skew, when non-zero, is added to every expected probability: the
	// deliberately wrong oracle smoke_test.go uses to prove a mismatch
	// fails the run.
	skew float64
}

// servedOptions mirrors cmd/fused's translation of
// "-method corr -shards 8" with every other flag at its default.
func servedOptions(d *triple.Dataset) corrfuse.Options {
	opts := corrfuse.Options{Method: corrfuse.PrecRecCorr, Shards: numShards}
	if nt, nf := d.CountLabels(); nt+nf > 0 {
		opts.Alpha = math.Min(0.95, math.Max(0.05, float64(nt)/float64(nt+nf)))
	}
	return opts
}

func newOracle(st *store.Store, skew float64) (*oracle, error) {
	d := st.Dataset()
	m, err := corrfuse.NewModel(d, servedOptions(d))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	probs, provided, accepted := m.FrozenScores()
	return &oracle{d: d, idx: index.Build(d, probs, provided, accepted, 0), skew: skew}, nil
}

// expectation is what one scored triple must come back as.
type expectation struct {
	known    bool
	prob     float64
	accepted bool
}

func (o *oracle) expect(t triple.Triple) expectation {
	id, ok := o.d.TripleID(t)
	if !ok {
		return expectation{}
	}
	p, acc, ok := o.idx.Lookup(id)
	if !ok {
		return expectation{}
	}
	return expectation{known: true, prob: p + o.skew, accepted: acc}
}

// scoreResponse is the /v1/score body as far as the checks read it.
type scoreResponse struct {
	Results []struct {
		Triple      triple.Triple `json:"triple"`
		Probability float64       `json:"probability"`
		Basis       string        `json:"basis"`
		Accepted    *bool         `json:"accepted"`
	} `json:"results"`
	SnapshotSeq     uint64 `json:"snapshotSeq"`
	SnapshotVersion uint64 `json:"snapshotVersion"`
	IndexVersion    uint64 `json:"indexVersion"`
}

// checkScore fully parses a /v1/score body and compares it with what the
// oracle expects for the request's triples.
func checkScore(body []byte, want []expectation) error {
	_, err := parseScore(body, want)
	return err
}

// parseScore is checkScore handing back the parsed response.
func parseScore(body []byte, want []expectation) (*scoreResponse, error) {
	resp := new(scoreResponse)
	if err := json.Unmarshal(body, resp); err != nil {
		return nil, fmt.Errorf("score response: %w", err)
	}
	if resp.SnapshotVersion != resp.IndexVersion {
		return nil, fmt.Errorf("score response mixes generations: snapshotVersion %d, indexVersion %d", resp.SnapshotVersion, resp.IndexVersion)
	}
	if len(resp.Results) != len(want) {
		return nil, fmt.Errorf("score response has %d results, want %d", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		w := want[i]
		switch {
		case !w.known && r.Basis != "unknown":
			return nil, fmt.Errorf("result %d (%v): basis %q for a never-seen triple", i, r.Triple, r.Basis)
		case !w.known:
		case r.Basis != "snapshot":
			return nil, fmt.Errorf("result %d (%v): basis %q, want snapshot", i, r.Triple, r.Basis)
		case math.Abs(r.Probability-w.prob) > tolerance:
			return nil, fmt.Errorf("result %d (%v): probability %v, oracle %v", i, r.Triple, r.Probability, w.prob)
		case r.Accepted == nil || *r.Accepted != w.accepted:
			return nil, fmt.Errorf("result %d (%v): accepted differs from oracle %v", i, r.Triple, w.accepted)
		}
	}
	return resp, nil
}

// entriesResponse is the /v1/subject body as far as the checks read it.
type entriesResponse struct {
	Results []struct {
		Triple      triple.Triple `json:"triple"`
		Probability float64       `json:"probability"`
		Accepted    bool          `json:"accepted"`
	} `json:"results"`
	SnapshotVersion uint64 `json:"snapshotVersion"`
	IndexVersion    uint64 `json:"indexVersion"`
}

// checkSubject compares a /v1/subject body with the oracle's own ranked
// listing: same triples in the same order with the same probabilities.
func (o *oracle) checkSubject(body []byte, subject string) error {
	var resp entriesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("subject response: %w", err)
	}
	if resp.SnapshotVersion != resp.IndexVersion {
		return fmt.Errorf("subject response mixes generations: %d vs %d", resp.SnapshotVersion, resp.IndexVersion)
	}
	want := o.idx.Subject(subject)
	if len(resp.Results) != len(want) {
		return fmt.Errorf("subject %s: %d results, oracle %d", subject, len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r.Triple != want[i].Triple || math.Abs(r.Probability-(want[i].Probability+o.skew)) > tolerance || r.Accepted != want[i].Accepted {
			return fmt.Errorf("subject %s entry %d: got %v p=%v, oracle %v p=%v", subject, i, r.Triple, r.Probability, want[i].Triple, want[i].Probability)
		}
	}
	return nil
}

// checkTriple compares a /v1/triple body with the oracle.
func (o *oracle) checkTriple(body []byte, t triple.Triple) error {
	var resp struct {
		Result struct {
			Triple      triple.Triple `json:"triple"`
			Sources     []string      `json:"sources"`
			Probability float64       `json:"probability"`
			Live        bool          `json:"live"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("triple response: %w", err)
	}
	w := o.expect(t)
	if !w.known || resp.Result.Triple != t || resp.Result.Live || math.Abs(resp.Result.Probability-w.prob) > tolerance {
		return fmt.Errorf("triple %v: got p=%v live=%v, oracle p=%v", t, resp.Result.Probability, resp.Result.Live, w.prob)
	}
	id, _ := o.d.TripleID(t)
	if len(resp.Result.Sources) != len(o.d.Providers(id)) {
		return fmt.Errorf("triple %v: %d sources, oracle %d", t, len(resp.Result.Sources), len(o.d.Providers(id)))
	}
	return nil
}

// versionsAgree is the cheap check made on every response that carries the
// generation trailer: it finds `"snapshotVersion":N,"indexVersion":M}` at
// the end of the body without parsing the rest.
func versionsAgree(body []byte) bool {
	const key = `"indexVersion":`
	end := len(body)
	for end > 0 && (body[end-1] == '\n' || body[end-1] == '}') {
		end--
	}
	i := end
	for i > 0 && body[i-1] >= '0' && body[i-1] <= '9' {
		i--
	}
	iv := body[i:end]
	if len(iv) == 0 || i < len(key) || string(body[i-len(key):i]) != key {
		return false
	}
	end = i - len(key) - 1 // skip the comma
	j := end
	for j > 0 && body[j-1] >= '0' && body[j-1] <= '9' {
		j--
	}
	return end > j && string(body[j:end]) == string(iv)
}
