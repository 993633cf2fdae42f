// Package shard partitions a fusion dataset by subject hash so that
// independent per-shard models can be trained and queried concurrently.
//
// The paper's PrecRecCorr terms are per-pattern independent, and with a
// subject-hash partition every triple about one subject lands in the same
// shard, so subject-scoped accountability (triple.ScopeSubject) and
// subject-local correlation survive the split exactly: a source's scope
// within a shard equals its global scope restricted to the shard. Quality
// statistics and correlations that span shards are approximated by
// shard-local training (see the root package's ShardedFuser for the exact
// consistency contract).
//
// The partition keeps every source registered in every shard in global
// registration order, so triple.SourceID values are interchangeable between
// the global dataset and any shard — quality parameters, clusters and
// incremental scorers can be moved across the boundary without translation.
//
// A one-way partition is the unpartitioned dataset: shard 0 is the dataset
// itself (no copy) under identity ID maps, which is what makes the root
// package's one-shard engine equal to a plain Fuser bit for bit.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"corrfuse/internal/triple"
)

// FNV-1a constants (hash/fnv, inlined to keep hashing allocation-free).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Of returns the shard index of a subject under an n-way partition: the
// FNV-1a hash of the subject modulo n. It is the single routing function of
// the sharded engine — datasets, batch models and online scorers must all
// agree on it.
func Of(subject string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(offset64)
	for i := 0; i < len(subject); i++ {
		h ^= uint64(subject[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// Partition is an n-way subject-hash split of a dataset. Each shard is a
// self-contained triple.Dataset holding exactly the triples whose subject
// hashes to it (observations and labels included), with the full source
// table registered in global order. The partition records the two-way
// TripleID mapping between the global dataset and the shards.
//
// A Partition is immutable once built and safe for concurrent use.
type Partition struct {
	global *triple.Dataset
	shards []*triple.Dataset

	// shardOf and localID map a global TripleID to its shard and its ID
	// within that shard's dataset. A one-way partition keeps all three maps
	// empty: its only shard is the global dataset and the mapping is the
	// identity (see Locate and GlobalID).
	shardOf []int32
	localID []triple.TripleID
	// globalID[s][local] is the inverse mapping.
	globalID [][]triple.TripleID

	timings Timings
}

// Timings is the stage cost breakdown of one partition build, feeding the
// service's corrfused_rebuild_stage_seconds metrics: Route is the serial
// subject-hash routing pass, Build the wall time of the concurrent
// per-shard dataset builds (for RebuildPartial, adoption checks included).
type Timings struct {
	Route time.Duration
	Build time.Duration
}

// Timings returns the partition build's stage costs.
func (p *Partition) Timings() Timings { return p.timings }

// New splits d into n subject-hash shards from scratch: RebuildPartial with
// no previous partition to adopt from.
func New(d *triple.Dataset, n, workers int) *Partition {
	p, _ := RebuildPartial(d, n, nil, nil, workers)
	return p
}

// buildShard interns shard si's triples (p.globalID[si], in global order)
// into a fresh dataset, recording the local IDs. Interning in ascending
// global order makes local IDs positional: the j-th routed triple gets local
// ID j — the stable assignment RebuildPartial's dataset comparison relies
// on. The only shard of a one-way partition is d itself.
func (p *Partition) buildShard(d *triple.Dataset, si int) {
	if len(p.shards) == 1 {
		p.shards[0] = d
		return
	}
	ids := p.globalID[si]
	sd := triple.NewDatasetCap(d.NumSources(), len(ids))
	for _, s := range d.Sources() {
		sd.AddSource(s.Name)
	}
	for _, id := range ids {
		// A label-only triple (gold truth missed by every source) has no
		// providers and still gets an ID in its shard.
		p.localID[id] = sd.InsertRow(d.Triple(id), d.Providers(id), d.Label(id))
	}
	p.shards[si] = sd
}

// RebuildPartial splits d into n subject-hash shards (n < 1 is treated as
// 1), building the shard datasets on up to workers goroutines (<= 0 means
// GOMAXPROCS). With a previous n-way partition it adopts prev's immutable
// shard dataset verbatim for every shard si with keep[si] true whose slice
// of d is verifiably identical to prev's; a nil prev (or one of another
// shard count) adopts nothing. It returns the new partition and which shards
// were actually adopted.
//
// Only the routing pass — one subject hash per triple — is serial; the
// per-shard dataset builds (the expensive part: interning every triple and
// observation into the shard's indexes) run concurrently, one goroutine per
// shard. Each goroutine writes localID only at the indexes of its own
// shard's triples, so the builds share no mutable state. A one-way partition
// does neither: it adopts d itself as shard 0 under identity ID maps, so the
// one-shard engine costs no copy of the dataset.
//
// The subject-hash routing is stable and the global dataset only appends,
// so an unchanged shard's triples arrive in the same relative order as in
// prev and local IDs are positional — adoption needs no re-interning, only
// the cheap positional comparison of shardUnchanged (no hashing, no
// allocation). keep is the caller's change-tracking claim (e.g. per-shard
// store version counters); the comparison verifies it, so a wrong claim
// degrades to a rebuild of that shard, never to a stale adoption. When the
// source tables of d and prev's dataset differ, no shard is adopted: shard
// datasets register the full global source table, and quality parameters
// and silence-as-evidence scoring depend on it.
func RebuildPartial(d *triple.Dataset, n int, prev *Partition, keep []bool, workers int) (*Partition, []bool) {
	if n < 1 {
		n = 1
	}
	p := &Partition{
		global:   d,
		shards:   make([]*triple.Dataset, n),
		globalID: make([][]triple.TripleID, n),
	}
	begin := time.Now()
	if n > 1 {
		p.shardOf = make([]int32, d.NumTriples())
		p.localID = make([]triple.TripleID, d.NumTriples())
		for i := 0; i < d.NumTriples(); i++ {
			si := Of(d.Triple(triple.TripleID(i)).Subject, n)
			p.shardOf[i] = int32(si)
			p.globalID[si] = append(p.globalID[si], triple.TripleID(i))
		}
	}
	p.timings.Route = time.Since(begin)
	begin = time.Now()
	adoptable := prev != nil && prev.NumShards() == n && SourceTablesEqual(d, prev.global)
	reused := make([]bool, n)
	// Build errors are impossible here (fn always returns nil).
	ForEach(n, workers, func(si int) error {
		if adoptable && si < len(keep) && keep[si] && p.shardUnchanged(si, prev.shards[si]) {
			p.shards[si] = prev.shards[si]
			for j, id := range p.globalID[si] {
				p.localID[id] = triple.TripleID(j)
			}
			reused[si] = true
			return nil
		}
		p.buildShard(d, si)
		return nil
	})
	p.timings.Build = time.Since(begin)
	return p, reused
}

// SourceTablesEqual reports whether two datasets register the same sources
// in the same order — the condition for SourceID-indexed state (quality
// parameters, shard datasets' source registrations) to carry over between
// captures.
func SourceTablesEqual(a, b *triple.Dataset) bool {
	if a.NumSources() != b.NumSources() {
		return false
	}
	for _, s := range a.Sources() {
		if b.SourceName(s.ID) != s.Name {
			return false
		}
	}
	return true
}

// shardUnchanged reports whether the shard dataset sd (built from an earlier
// capture) is exactly the shard-local view of the triples p routed to shard
// si: same triples in the same positions with the same labels and providers.
// Local IDs are positional (see buildShard), so the comparison is one linear
// pass over the shard's triples and observations.
func (p *Partition) shardUnchanged(si int, sd *triple.Dataset) bool {
	d, n := p.global, len(p.globalID[si])
	if len(p.shards) == 1 {
		n = d.NumTriples()
	}
	if n != sd.NumTriples() {
		return false
	}
	for j := 0; j < n; j++ {
		lid := triple.TripleID(j)
		id := p.GlobalID(si, lid)
		if d.Triple(id) != sd.Triple(lid) || d.Label(id) != sd.Label(lid) {
			return false
		}
		pg, pl := d.Providers(id), sd.Providers(lid)
		if len(pg) != len(pl) {
			return false
		}
		for k := range pg {
			if pg[k] != pl[k] {
				return false
			}
		}
	}
	return true
}

// NumShards returns the number of shards.
func (p *Partition) NumShards() int { return len(p.shards) }

// Shard returns shard i's dataset. It must not be mutated.
func (p *Partition) Shard(i int) *triple.Dataset { return p.shards[i] }

// Locate maps a global TripleID to its shard and shard-local TripleID (the
// identity for a one-way partition, whose only shard is the dataset itself).
func (p *Partition) Locate(id triple.TripleID) (shard int, local triple.TripleID) {
	if len(p.shards) == 1 {
		return 0, id
	}
	return int(p.shardOf[id]), p.localID[id]
}

// GlobalID maps a shard-local TripleID back to the global one.
func (p *Partition) GlobalID(shard int, local triple.TripleID) triple.TripleID {
	if len(p.shards) == 1 {
		return local
	}
	return p.globalID[shard][local]
}

// Validate checks the partition invariants: every global triple is mapped to
// exactly one shard, the two-way ID mapping is consistent, every shard's
// source table matches the global one, and every shard dataset is internally
// consistent. Intended for tests.
func (p *Partition) Validate() error {
	total := 0
	for si, sd := range p.shards {
		if sd.NumSources() != p.global.NumSources() {
			return fmt.Errorf("shard %d registers %d sources, global has %d", si, sd.NumSources(), p.global.NumSources())
		}
		for _, s := range p.global.Sources() {
			if id, ok := sd.SourceID(s.Name); !ok || id != s.ID {
				return fmt.Errorf("shard %d: source %q has ID %d, global %d", si, s.Name, id, s.ID)
			}
		}
		if err := sd.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		total += sd.NumTriples()
		if len(p.shards) > 1 && len(p.globalID[si]) != sd.NumTriples() {
			return fmt.Errorf("shard %d: %d globalID entries for %d triples", si, len(p.globalID[si]), sd.NumTriples())
		}
	}
	if total != p.global.NumTriples() {
		return fmt.Errorf("shards hold %d triples, global has %d", total, p.global.NumTriples())
	}
	for i := 0; i < p.global.NumTriples(); i++ {
		id := triple.TripleID(i)
		si, lid := p.Locate(id)
		if want := Of(p.global.Triple(id).Subject, len(p.shards)); si != want {
			return fmt.Errorf("triple %d routed to shard %d, subject hashes to %d", id, si, want)
		}
		if p.shards[si].Triple(lid) != p.global.Triple(id) {
			return fmt.Errorf("triple %d maps to shard %d local %d holding a different triple", id, si, lid)
		}
		if back := p.GlobalID(si, lid); back != id {
			return fmt.Errorf("triple %d round-trips to %d", id, back)
		}
		if lg, gl := p.global.Label(id), p.shards[si].Label(lid); lg != gl {
			return fmt.Errorf("triple %d: label %v became %v in shard %d", id, lg, gl, si)
		}
		pg, pl := p.global.Providers(id), p.shards[si].Providers(lid)
		if len(pg) != len(pl) {
			return fmt.Errorf("triple %d: %d providers became %d in shard %d", id, len(pg), len(pl), si)
		}
		for j := range pg {
			if pg[j] != pl[j] {
				return fmt.Errorf("triple %d: provider %d is %d in shard %d, %d globally", id, j, pl[j], si, pg[j])
			}
		}
	}
	return nil
}

// ForEach runs fn(0), …, fn(n-1) across min(workers, n) goroutines
// (workers <= 0 means GOMAXPROCS) and returns the first error encountered.
// Work is handed out through an atomic counter, so uneven per-index costs
// balance across workers. On error the remaining indexes may or may not run;
// callers must treat the whole batch as failed.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { first = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
