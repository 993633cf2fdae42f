//go:build linux

package main

import (
	"fmt"
	"math/rand"

	"corrfuse/internal/codec"
	"corrfuse/internal/dataset"
	"corrfuse/internal/shard"
	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

// scale sizes every workload. full is what BENCHMARK.json runs; toy is what
// smoke_test.go runs under go test.
type scale struct {
	subjects    int // serving store: subjects × 4 predicates
	hubEntries  int // triples under the one wide subject
	scorePool   int // distinct pre-serialised /v1/score bodies
	listPool    int // distinct subject and triple requests, each
	openRate    int // read-heavy phase B, requests per second over all connections
	ingestRate  int // ingest-refuse: scripted batches per connection for each second asked for
	templateA   int // cold-boot template: batches ingested before the persist
	templateB   int // cold-boot template: batches ingested after it (the WAL suffix)
	fuseTriples int // batch-fuse dataset size
	minBoots    int
	minFuse     int // iterations per method
	// guards makes read-heavy refuse to report when the generator was the
	// bottleneck. Off at toy scale: a one-second phase under `go test ./...`
	// shares the box with every other package's tests.
	guards bool
}

var (
	fullScale = scale{subjects: 13000, hubEntries: 512, scorePool: 2048, listPool: 512, openRate: 2000,
		ingestRate: 650, templateA: 256, templateB: 1000, fuseTriples: 50000, minBoots: 4, minFuse: 2, guards: true}
	toyScale = scale{subjects: 500, hubEntries: 32, scorePool: 64, listPool: 32, openRate: 400,
		ingestRate: 80, templateA: 8, templateB: 24, fuseTriples: 2000, minBoots: 2, minFuse: 1}
)

const (
	numGroups     = 48 // copier pair + independent source, each
	numShards     = 8
	batchClaims   = 16
	scoreBulk     = 64
	hubSubject    = "hub-entity"
	zipfExponent  = 1.1
	unseenPerBulk = 6    // never-stored triples in each 64-triple score request (≈10 %)
	hubEvery      = 100  // every 100th subject listing asks for the wide hub subject (1 %)
	newTripleRate = 0.10 // of ingested claims; the rest re-claim stored triples
)

// servingData is the seeded serving store and the ground truth it was
// generated from. The shape is bench_test.go's shardBenchDataset (48 groups
// of two copiers and an independent source, 4 predicates per subject, 40 %
// labelled) with the kind of each triple and the labelled subset drawn from
// the seed instead of from the triple's position.
type servingData struct {
	d        *triple.Dataset
	sources  []string
	subjects []string
	// group[i] is the source group of triple i (subject i/4, predicate i%4).
	group []uint8
	// truth[i] reports whether triple i was generated as a correct one; the
	// answer_f1 of the serving workloads is scored against it.
	truth   []bool
	byShard [numShards][]int // subject indexes by shard.Of
}

func subjectName(i int) string   { return fmt.Sprintf("entity-%05d", i) }
func predicateName(p int) string { return fmt.Sprintf("p%d", p) }

func (sd *servingData) triple(i int) triple.Triple {
	return triple.Triple{Subject: sd.subjects[i/4], Predicate: predicateName(i % 4), Object: "v"}
}

func genServing(seed int64, sc scale) *servingData {
	rng := rand.New(rand.NewSource(seed))
	sd := &servingData{d: triple.NewDataset()}
	var copA, copB, ind [numGroups]triple.SourceID
	for g := 0; g < numGroups; g++ {
		copA[g] = sd.d.AddSource(fmt.Sprintf("copierA-%d", g))
		copB[g] = sd.d.AddSource(fmt.Sprintf("copierB-%d", g))
		ind[g] = sd.d.AddSource(fmt.Sprintf("indep-%d", g))
	}
	for _, s := range sd.d.Sources() {
		sd.sources = append(sd.sources, s.Name)
	}
	for s := 0; s < sc.subjects; s++ {
		sub := subjectName(s)
		sd.subjects = append(sd.subjects, sub)
		sh := shard.Of(sub, numShards)
		sd.byShard[sh] = append(sd.byShard[sh], s)
		for p := 0; p < 4; p++ {
			t := triple.Triple{Subject: sub, Predicate: predicateName(p), Object: "v"}
			g, kind := rng.Intn(numGroups), rng.Intn(5)
			if i := s*4 + p; i < numGroups {
				// The first 48 triples are corroborated ones, one per group
				// in order. store.Dataset numbers sources by first
				// appearance, and a partial rebuild adopts no shard once
				// that numbering moves; with every source named up front no
				// later claim can move it, so the ingest workload exercises
				// shard adoption instead of silently bypassing it.
				g, kind = i, 2
			}
			truth := true
			switch kind {
			case 0, 1: // copied, correct
				sd.d.Observe(copA[g], t)
				sd.d.Observe(copB[g], t)
			case 2: // corroborated by the independent source
				sd.d.Observe(copA[g], t)
				sd.d.Observe(copB[g], t)
				sd.d.Observe(ind[g], t)
			case 3: // independent only, wrong half the time
				sd.d.Observe(ind[g], t)
				truth = rng.Intn(2) == 0
			case 4: // copied mistake
				sd.d.Observe(copA[g], t)
				sd.d.Observe(copB[g], t)
				truth = false
			}
			if rng.Float64() < 0.4 {
				if truth {
					sd.d.SetLabel(t, triple.True)
				} else {
					sd.d.SetLabel(t, triple.False)
				}
			}
			sd.group = append(sd.group, uint8(g))
			sd.truth = append(sd.truth, truth)
		}
	}
	return sd
}

// store materialises the dataset as a store with the wide hub subject on top.
func (sd *servingData) store(sc scale) *store.Store {
	st := store.FromDataset(sd.d)
	for i := 0; i < sc.hubEntries; i++ {
		st.Put(store.Entry{
			Triple:  triple.Triple{Subject: hubSubject, Predicate: fmt.Sprintf("ph%d", i), Object: "v"},
			Sources: []string{fmt.Sprintf("indep-%d", i%numGroups)},
		})
	}
	return st
}

// zipfSubjects draws subject indexes with Zipf(1.1) popularity; which
// subject holds which rank is itself drawn from the seed.
type zipfSubjects struct {
	z    *rand.Zipf
	perm []int
}

func newZipfSubjects(rng *rand.Rand, n int) *zipfSubjects {
	return &zipfSubjects{z: rand.NewZipf(rng, zipfExponent, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (z *zipfSubjects) next() int { return z.perm[z.z.Uint64()] }

// claim is one scripted observation, compact enough to keep every
// acknowledged one for the post-crash check.
type claim struct {
	source  uint16
	subject uint32
	pred    uint8
	// fresh > 0 marks a never-stored triple; it is the object's serial.
	fresh uint32
}

func (sd *servingData) claimTriple(c claim, conn int) triple.Triple {
	t := triple.Triple{Subject: sd.subjects[c.subject], Predicate: predicateName(int(c.pred)), Object: "v"}
	if c.fresh > 0 {
		t.Object = fmt.Sprintf("w%d-%d", conn, c.fresh)
	}
	return t
}

// claimScript generates one connection's deterministic batch sequence.
// Nine batches in ten stay inside two hot shards; the tenth goes to one
// further shard that rotates every rotateEvery batches, so a partial rebuild
// always finds clean shards to adopt.
type claimScript struct {
	sd    *servingData
	rng   *rand.Rand
	conn  int
	hot   [2]int
	batch int
	fresh uint32
}

const rotateEvery = 4096

func newClaimScript(sd *servingData, seed int64, conn int) *claimScript {
	hot := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e)).Perm(numShards)
	return &claimScript{
		sd:   sd,
		rng:  rand.New(rand.NewSource(seed*31 + int64(conn) + 1)),
		conn: conn,
		hot:  [2]int{hot[0], hot[1]},
	}
}

func (cs *claimScript) next(dst []claim) []claim {
	sh := cs.hot[cs.rng.Intn(2)]
	if cs.rng.Intn(10) == 0 {
		sh = (cs.batch / rotateEvery) % numShards
	}
	cs.batch++
	subs := cs.sd.byShard[sh]
	dst = dst[:0]
	for i := 0; i < batchClaims; i++ {
		s := subs[cs.rng.Intn(len(subs))]
		p := cs.rng.Intn(4)
		// A source of the triple's own group: claims from other groups
		// would weld the 48 three-source clusters into wide ones, and the
		// exact method is exponential in cluster width (22 sources took
		// fused past 7 GiB before this was changed). A source that
		// provides the triple already makes the claim a duplicate, which
		// real feeds send too.
		g := int(cs.sd.group[s*4+p])
		c := claim{source: uint16(g*3 + cs.rng.Intn(3)), subject: uint32(s), pred: uint8(p)}
		if cs.rng.Float64() < newTripleRate {
			cs.fresh++
			c.fresh = cs.fresh
		}
		dst = append(dst, c)
	}
	return dst
}

// appendObserveBody serialises a batch as a /v1/observe body.
func (sd *servingData) appendObserveBody(dst []byte, batch []claim, conn int) []byte {
	dst = append(dst, `{"observations":[`...)
	for i, c := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		t := sd.claimTriple(c, conn)
		dst = append(dst, `{"source":`...)
		dst = codec.AppendString(dst, sd.sources[c.source])
		dst = append(dst, `,"subject":`...)
		dst = codec.AppendString(dst, t.Subject)
		dst = append(dst, `,"predicate":`...)
		dst = codec.AppendString(dst, t.Predicate)
		dst = append(dst, `,"object":`...)
		dst = codec.AppendString(dst, t.Object)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendScoreBody serialises triples as a /v1/score body.
func appendScoreBody(dst []byte, ts []triple.Triple) []byte {
	dst = append(dst, `{"triples":[`...)
	for i, t := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Subject":`...)
		dst = codec.AppendString(dst, t.Subject)
		dst = append(dst, `,"Predicate":`...)
		dst = codec.AppendString(dst, t.Predicate)
		dst = append(dst, `,"Object":`...)
		dst = codec.AppendString(dst, t.Object)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// fuseSpec is the batch-fuse dataset: 12 sources in one cluster (no more
// than core.MaxExactCluster, so the exact method runs its full 2^12
// inclusion–exclusion), a group correlated on true triples, a group
// correlated on false ones, and one source whose mistakes are disjoint from
// everyone else's.
//
// The seed draws the observations, not the sources' qualities: those decide
// how many distinct provider patterns the exact method has to expand, and a
// workload whose amount of work moved with the seed would bury a 10 % change
// under its own spread.
func fuseSpec(seed int64, triples int) dataset.SyntheticSpec {
	spec := dataset.SyntheticSpec{NumTrue: triples / 2, NumFalse: triples - triples/2, Seed: seed, SubjectPrefix: "fact"}
	for i := 0; i < 12; i++ {
		spec.Sources = append(spec.Sources, dataset.SourceSpec{
			Precision:   0.55 + 0.025*float64(i),
			Recall:      0.25 + 0.025*float64((i*5)%12),
			FalseWindow: dataset.Window{Lo: 0, Hi: 0.8},
		})
	}
	spec.Sources[11].FalseWindow = dataset.Window{Lo: 0.75, Hi: 1}
	spec.Groups = []dataset.GroupSpec{
		{Members: []int{0, 1, 2, 3}, OnTrue: true, Strength: 0.7},
		{Members: []int{4, 5, 6}, OnTrue: false, Strength: 0.7},
		{Members: []int{7, 8}, OnTrue: true, Strength: 0.5},
	}
	return spec
}
