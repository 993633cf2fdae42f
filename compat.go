package corrfuse

import "corrfuse/internal/shard"

// The declarations in this file are inert: the engine is one Fuser whatever
// Options.Shards says, and these names remain only because the frozen
// bench/ package compiles against them. They go when bench/ moves to Fuser
// and New.

// Model is the read surface of the engine as an interface.
type Model interface {
	MethodName() string
	Probability(t Triple) (p float64, ok bool)
	ProbabilityByID(id TripleID) float64
	Score(ids []TripleID) []float64
	Decide(t Triple) (accepted, known bool)
	Fuse() (*Result, error)
	// FrozenScores freezes the model on first call and returns the dense
	// per-TripleID score tables, shared (not copied) with the model's
	// immutable index; callers must not mutate them.
	FrozenScores() (probs []float64, provided, accepted []bool)
	Dataset() *Dataset
	Options() Options
	// Online derives the live scorer from the trained model; it fails
	// for methods without one (the unsupervised baselines).
	Online(penalizeSilence bool) (OnlineScorer, error)
}

// NewModel is New behind the Model interface.
func NewModel(d *Dataset, opts Options) (Model, error) {
	f, err := New(d, opts)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ShardedFuser is Fuser.
type ShardedFuser = Fuser

// NewSharded is New.
func NewSharded(d *Dataset, opts Options) (*ShardedFuser, error) { return New(d, opts) }

// ShardStat is the element type of ShardStats, which is always empty.
type ShardStat struct {
	Reused bool
}

// RebuildPartial is Rebuild; dirty is ignored.
func (f *Fuser) RebuildPartial(d *Dataset, dirty []int) (*Fuser, error) { return f.Rebuild(d) }

// PartitionTimings returns zero timings: nothing is partitioned.
func (f *Fuser) PartitionTimings() shard.Timings { return shard.Timings{} }

// ShardStats returns nil: the model has no shards.
func (f *Fuser) ShardStats() []ShardStat { return nil }

// NumShards returns 1: the model is one.
func (f *Fuser) NumShards() int { return 1 }
