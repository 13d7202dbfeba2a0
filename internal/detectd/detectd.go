// Package detectd is the long-running streaming detection service: the
// paper's three-step pipeline turned into a daemon. It glues three layers
// together:
//
//  1. A sliding-window projector (stream.SlidingProjector) ingests a
//     time-ordered comment stream and maintains the CI graph of only the
//     trailing event-time horizon — old co-activity ages out instead of
//     accumulating forever.
//  2. A background survey loop periodically snapshots the live CI graph
//     and hands it, with a BTM of the windowed comment log, to one warm
//     pipeline.Cycle — the same survey engine batch pipeline.Run runs
//     cold. The live graph is a sharded copy-on-write store, so a snapshot
//     freezes shard references under per-shard locks — O(shards), not
//     O(edges) — and ingestion recopies only the shards it dirties
//     afterwards. The engine diffs each snapshot against the previous
//     cycle's, keeps every cached triangle that touches no dirty vertex,
//     re-enumerates only the dirty frontier, and serves Step-3 scores from
//     a per-triplet memo that the service invalidates by author as the
//     comment log changes. The first cycle is a full pass. An idle cycle
//     (nothing ingested since the last survey) republishes the previous
//     result without recomputing anything.
//  3. An HTTP/JSON API (http.go) exposes ingestion with backpressure,
//     the latest survey, per-user scoring, stats, and health.
//
// Time is event time throughout: eviction is driven by ingested
// timestamps, not the wall clock, so replayed archives and live traffic
// behave identically. The survey loop's cadence is the only wall-clock
// element.
package detectd

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/interner"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/stream"
)

// Config parameterizes the daemon.
type Config struct {
	// Window is the projection delay window (δ1, δ2) in seconds.
	Window projection.Window
	// Horizon is the trailing event-time span, in seconds, that the CI
	// graph covers; co-activity older than this decays out.
	Horizon int64
	// Signals selects the coordination signals the projector fans the
	// ingest stream out to, each optionally with its own trailing horizon
	// (0 = Horizon). Empty means the single default co-comment signal
	// over Window — bit-identical to a pre-signal daemon. With two or
	// more signals the live store keeps a per-signal weight breakdown:
	// /v1/stats reports per-signal counters, and /v1/score and
	// /v1/communities report the signal mix of each group. The survey,
	// delta, and community layers run unchanged on the merged totals.
	Signals []stream.SignalConfig
	// SurveyInterval is the wall-clock cadence of the background survey
	// loop. Zero or negative disables the loop; surveys then run only via
	// SurveyNow (the embedding/test mode).
	SurveyInterval time.Duration
	// MinEdgeWeight / MinTriangleWeight / MinTScore are the survey
	// thresholds, as in pipeline.Config.
	MinEdgeWeight     uint32
	MinTriangleWeight uint32
	MinTScore         float64
	// ValidateHypergraph keeps a trailing-horizon comment log and runs
	// Step-3 validation each cycle. Costs memory proportional to the
	// horizon's traffic; without it surveys report CI metrics only.
	ValidateHypergraph bool
	// Exclude lists author names skipped at projection (§3 helpers).
	Exclude []string
	// ExcludeIDs lists pre-interned author IDs skipped at projection, for
	// replayed archives that carry numeric IDs without a name table. Merged
	// with Exclude.
	ExcludeIDs []graph.VertexID
	// QueueSize bounds the ingest queue in batches; a full queue makes
	// the API push back with 429 (default 256).
	QueueSize int
	// ClampLate lifts slightly-late comments up to the watermark instead
	// of rejecting them (live feeds are only approximately ordered).
	// When false, out-of-order comments are dropped and counted.
	ClampLate bool
	// Ranks is the survey parallelism (0 = library default).
	Ranks int
	// Shards is the shard count of the live CI store (rounded up to a
	// power of two; 0 = graph.DefaultShards). More shards cut the
	// copy-on-write cost hot ingestion pays after each snapshot — and
	// tighten the dirty-shard diff the incremental survey starts from.
	Shards int
	// IngestWorkers is the projector's batch-ingest parallelism: batches
	// are dispatched across object-striped lanes processed by this many
	// goroutines (stream.NewMultiSlidingProjectorWorkers). 0 means
	// GOMAXPROCS; 1 forces the serial reference path. The projected graph
	// is identical either way.
	IngestWorkers int
	// OrientRebuildFrac is the drifted-vertex fraction at which the
	// persistent oriented adjacency re-freezes its epoch order
	// (tripoll.Oriented). 0 means the library default; a negative value
	// forces a re-orientation after every patched cycle (the conservative
	// tight-degree-bound mode).
	OrientRebuildFrac float64
	// Communities enables the clustering layer: each cycle partitions the
	// pruned snapshot into communities (Leiden or Label Propagation) and
	// scores them with the generalized coordination metrics, served at
	// /v1/communities. The partition is cached between cycles and, on
	// delta cycles, warm-started: connected components untouched by the
	// dirty-vertex diff reuse their previous assignment verbatim (the
	// result is provably identical to clustering from scratch — see
	// package community).
	Communities bool
	// Community parameterizes the clustering (zero value = Leiden,
	// resolution 1.0, min community size 3, seed 1).
	Community community.Config
}

func (c *Config) setDefaults() error {
	if err := c.Window.Validate(); err != nil {
		return err
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("detectd: non-positive horizon %d", c.Horizon)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.MinTriangleWeight == 0 {
		c.MinTriangleWeight = 1
	}
	return nil
}

// pipelineConfig is the survey engine's share of the daemon config.
func (c *Config) pipelineConfig() pipeline.Config {
	return pipeline.Config{
		Window:            c.Window,
		MinEdgeWeight:     c.MinEdgeWeight,
		MinTriangleWeight: c.MinTriangleWeight,
		MinTScore:         c.MinTScore,
		Ranks:             c.Ranks,
		SkipHypergraph:    !c.ValidateHypergraph,
		Communities:       c.Communities,
		Community:         c.Community,
	}
}

// SurveyResult is one published survey cycle.
type SurveyResult struct {
	// Cycle numbers survey runs from 1.
	Cycle int64
	// Watermark is the event time of the snapshot.
	Watermark int64
	// TakenAt / Duration are wall-clock: when the cycle started and how
	// long snapshot+survey+validation took.
	TakenAt  time.Time
	Duration time.Duration
	// Edges / Vertices describe the snapshot CI graph.
	Edges, Vertices int
	// Result is the full batch-pipeline output on the snapshot.
	Result *pipeline.Result
	// Reused reports that the stream was idle since the previous cycle,
	// so this cycle republished the previous Result without resurveying.
	Reused bool
	// CycleStats says how the survey engine went about this cycle: delta
	// or full pass, the size of the diff, carried-over versus freshly
	// enumerated triangles, and the persistent orientation's counters.
	pipeline.CycleStats
	// Communities counts the scored communities of this cycle (those with
	// >= Config.Community.MinSize members; 0 without Config.Communities).
	// ReusedComponents / ClusteredComponents split the pruned graph's
	// connected components between warm-start reuse and fresh clustering.
	Communities         int
	ReusedComponents    int
	ClusteredComponents int

	// snap / btm are the immutable inputs the survey ran on, kept for
	// same-package consumers: the score endpoint's group metrics and the
	// equivalence oracle in tests. btm is nil without ValidateHypergraph.
	snap *graph.CISnapshot
	btm  *graph.BTM

	// stamp identifies the exact stream state the survey saw; an equal
	// stamp on the next cycle proves the graph and log are unchanged.
	stamp surveyStamp
}

// surveyStamp is captured under s.mu together with the snapshot. The
// ingested counter covers the comment log too: every logged comment
// increments it, and the daemon never advances event time without one.
type surveyStamp struct {
	graphVersion uint64
	ingested     int64
	watermark    int64
}

// Service is the daemon. Create with NewService, start the background
// goroutines with Start, serve Handler() over HTTP, stop with Close.
type Service struct {
	cfg     Config
	authors *interner.Interner
	pageIDs *interner.Interner
	// urlIDs / tagIDs intern the signal-attribute object spaces (URLs,
	// hashtags) independently of pages. Allocated lazily-cheap even when
	// no signal reads them.
	urlIDs *interner.Interner
	tagIDs *interner.Interner
	// signalNames caches the projector's signal order for stats and mix
	// labelling (immutable after NewService).
	signalNames []string

	mu   sync.Mutex // guards proj, applyBuf, log, and logDirty
	proj *stream.SlidingProjector
	// applyBuf is the service-owned staging batch: ingest clamps and
	// filters caller batches into it (callers' slices are never mutated)
	// and flushes it through one projector AddBatch per Apply or per
	// coalesced queue drain.
	applyBuf []graph.Comment
	// log is the trailing-horizon comment ring Step 3 validates against
	// (only when cfg.ValidateHypergraph).
	log      []graph.Comment
	logStart int
	// logDirty accumulates authors whose windowed comment set changed
	// (a comment ingested or aged out) since the last survey consumed it —
	// exactly the authors whose hypergraph scores may have moved, so the
	// survey invalidates their memoized triplets and keeps the rest.
	logDirty map[graph.VertexID]bool

	// surveyMu serializes survey cycles: they run cycle, the engine that
	// holds the cross-cycle incremental state. Ingestion never takes this
	// lock.
	surveyMu sync.Mutex
	cycle    *pipeline.Cycle

	queue  chan []graph.Comment
	latest atomic.Pointer[SurveyResult]

	ingested      atomic.Int64
	dropped       atomic.Int64
	lateClamped   atomic.Int64
	cycles        atomic.Int64
	surveysReused atomic.Int64
	surveyErrs    atomic.Int64
	lastSurveyNS  atomic.Int64

	deltaCycles         atomic.Int64
	fullResurveys       atomic.Int64
	trianglesCached     atomic.Int64
	trianglesResurveyed atomic.Int64
	hyperCacheHits      atomic.Int64
	lastDirtyShards     atomic.Int64
	lastDirtyVertices   atomic.Int64
	orientEpoch         atomic.Int64
	orientPatchedEdges  atomic.Int64
	orientRebuilds      atomic.Int64

	lastCommunities     atomic.Int64
	componentsReused    atomic.Int64
	componentsClustered atomic.Int64

	metrics *metrics
	started time.Time

	stopping             atomic.Bool
	quit                 chan struct{}
	wg                   sync.WaitGroup
	startOnce, closeOnce sync.Once
}

// NewService validates cfg and builds a stopped service.
func NewService(cfg Config) (*Service, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	authors := interner.New(1 << 12)
	exclude := make(map[graph.VertexID]bool, len(cfg.Exclude)+len(cfg.ExcludeIDs))
	for _, name := range cfg.Exclude {
		exclude[authors.Intern(name)] = true
	}
	for _, id := range cfg.ExcludeIDs {
		exclude[id] = true
	}
	opts := projection.Options{Exclude: exclude}
	sigs := cfg.Signals
	if len(sigs) == 0 {
		sigs = []stream.SignalConfig{{Signal: projection.CoComment{W: cfg.Window}}}
	}
	workers := cfg.IngestWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	proj, err := stream.NewMultiSlidingProjectorWorkers(sigs, cfg.Horizon, opts, cfg.Shards, workers)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, sg := range proj.Signals() {
		names = append(names, sg.Name())
	}
	return &Service{
		cfg:         cfg,
		authors:     authors,
		pageIDs:     interner.New(1 << 12),
		urlIDs:      interner.New(1 << 8),
		tagIDs:      interner.New(1 << 8),
		signalNames: names,
		proj:        proj,
		cycle:       pipeline.NewCycle(cfg.pipelineConfig(), cfg.OrientRebuildFrac),
		queue:       make(chan []graph.Comment, cfg.QueueSize),
		metrics:     newMetrics(),
		quit:        make(chan struct{}),
		started:     time.Now(),
	}, nil
}

// Authors exposes the author name↔ID table (shared with API responses).
func (s *Service) Authors() *interner.Interner { return s.authors }

// Pages exposes the page name↔ID table.
func (s *Service) Pages() *interner.Interner { return s.pageIDs }

// Start launches the ingest worker and, if configured, the survey loop.
// Each long-lived goroutine carries a pprof "phase" label (ingest /
// survey, with the clustering section additionally labeled communities),
// so -pprof-addr profiles attribute samples by pipeline phase.
func (s *Service) Start() {
	s.startOnce.Do(func() {
		s.wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("phase", "ingest"), func(context.Context) {
			s.ingestLoop()
		})
		if s.cfg.SurveyInterval > 0 {
			s.wg.Add(1)
			go pprof.Do(context.Background(), pprof.Labels("phase", "survey"), func(context.Context) {
				s.surveyLoop()
			})
		}
	})
}

// Close stops ingestion, drains the queue, and waits for the background
// goroutines. Safe to call more than once. New ingests are rejected with
// ErrStopped as soon as Close begins.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.stopping.Store(true)
		close(s.quit)
	})
	s.wg.Wait()
}

// Sentinel ingestion errors, mapped to HTTP statuses by the API layer.
var (
	ErrQueueFull = fmt.Errorf("detectd: ingest queue full")
	ErrStopped   = fmt.Errorf("detectd: service stopped")
)

// Enqueue hands a batch of interned comments to the ingest worker without
// blocking: a full queue returns ErrQueueFull (backpressure), a stopping
// service ErrStopped.
func (s *Service) Enqueue(batch []graph.Comment) error {
	if len(batch) == 0 {
		return nil
	}
	if s.stopping.Load() {
		return ErrStopped
	}
	select {
	case s.queue <- batch:
		return nil
	default:
		return ErrQueueFull
	}
}

// Apply ingests a batch synchronously, bypassing the queue — the embedding
// path for in-process pipelines and benchmarks. The caller's slice is not
// mutated and not retained. Concurrent-safe.
func (s *Service) Apply(batch []graph.Comment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gatherLocked(batch)
	s.flushLocked()
}

// gatherLocked clamps (or drops) late comments from batch into the staging
// buffer. The clamp watermark threads through the buffered tail, so
// gathering N batches then flushing once is comment-for-comment identical
// to N clamp-and-apply rounds. Caller holds s.mu.
func (s *Service) gatherLocked(batch []graph.Comment) {
	wm := s.proj.Watermark()
	if n := len(s.applyBuf); n > 0 {
		wm = s.applyBuf[n-1].TS
	}
	for _, c := range batch {
		if c.TS < wm {
			if !s.cfg.ClampLate {
				s.dropped.Add(1)
				continue
			}
			c.TS = wm
			s.lateClamped.Add(1)
		} else {
			wm = c.TS
		}
		s.applyBuf = append(s.applyBuf, c)
	}
}

// flushLocked feeds the staging buffer through one projector batch
// ingest, then settles counters and the validation log. Caller holds
// s.mu. Gathering guarantees nondecreasing timestamps, so the projector
// cannot reject — the count delta is still consulted rather than assumed,
// and any shortfall lands in the dropped counter.
func (s *Service) flushLocked() {
	if len(s.applyBuf) == 0 {
		return
	}
	before := s.proj.Count()
	err := s.proj.AddBatch(s.applyBuf)
	applied := int(s.proj.Count() - before)
	s.ingested.Add(int64(applied))
	if err != nil || applied < len(s.applyBuf) {
		s.dropped.Add(int64(len(s.applyBuf) - applied))
	}
	if s.cfg.ValidateHypergraph {
		for _, c := range s.applyBuf[:applied] {
			s.log = append(s.log, c)
			s.markHyperDirty(c.Author)
		}
		s.evictLogLocked()
	}
	s.applyBuf = s.applyBuf[:0]
}

// markHyperDirty records that a's windowed comment set changed. Caller
// holds s.mu.
func (s *Service) markHyperDirty(a graph.VertexID) {
	if s.logDirty == nil {
		s.logDirty = make(map[graph.VertexID]bool)
	}
	s.logDirty[a] = true
}

// evictLogLocked drops logged comments outside the horizon. Caller holds
// s.mu. The log is append-ordered by (clamped) timestamp, so a front scan
// suffices; the ring compacts when more than half is dead.
func (s *Service) evictLogLocked() {
	cut := s.proj.Watermark() - s.cfg.Horizon
	for s.logStart < len(s.log) && s.log[s.logStart].TS <= cut {
		s.markHyperDirty(s.log[s.logStart].Author)
		s.logStart++
	}
	if s.logStart > 1024 && s.logStart*2 > len(s.log) {
		s.log = append(s.log[:0], s.log[s.logStart:]...)
		s.logStart = 0
	}
}

// maxCoalesce bounds how many comments the ingest worker folds into one
// projector batch: big enough to amortize the per-batch eviction wave and
// lane dispatch, small enough that a survey waiting on s.mu is not held
// off indefinitely under sustained load.
const maxCoalesce = 1 << 16

func (s *Service) ingestLoop() {
	defer s.wg.Done()
	for {
		select {
		case batch := <-s.queue:
			s.applyCoalesced(batch)
		case <-s.quit:
			// Drain whatever was accepted before the stop.
			for {
				select {
				case batch := <-s.queue:
					s.applyCoalesced(batch)
				default:
					return
				}
			}
		}
	}
}

// applyCoalesced applies batch plus whatever else is already queued (up
// to maxCoalesce comments) as one projector batch under one lock hold.
func (s *Service) applyCoalesced(batch []graph.Comment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gatherLocked(batch)
	for len(s.applyBuf) < maxCoalesce {
		select {
		case b := <-s.queue:
			s.gatherLocked(b)
		default:
			s.flushLocked()
			return
		}
	}
	s.flushLocked()
}

func (s *Service) surveyLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SurveyInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := s.SurveyNow(); err != nil {
				s.surveyErrs.Add(1)
			}
		case <-s.quit:
			return
		}
	}
}

// SurveyNow runs one survey cycle synchronously: snapshot the live CI
// graph and copy the windowed comment log under a brief lock — the
// snapshot is O(shards) copy-on-write, not a deep copy — then run the
// survey engine (pipeline.Cycle) on the immutable copies and publish the
// result. If the stream is idle (stamp unchanged since the previous cycle)
// the previous result is republished with Reused set and no graph work at
// all. Otherwise the engine runs incrementally against the previous
// cycle's snapshot; only the first cycle is a full pass. Callable
// concurrently with ingestion; concurrent calls serialize on surveyMu.
// The error is always nil; it is kept for callers that treat a survey as
// fallible.
func (s *Service) SurveyNow() (*SurveyResult, error) {
	start := time.Now()
	s.surveyMu.Lock()
	defer s.surveyMu.Unlock()

	s.mu.Lock()
	st := surveyStamp{
		graphVersion: s.proj.GraphVersion(),
		ingested:     s.ingested.Load(),
		watermark:    s.proj.Watermark(),
	}
	if prev := s.latest.Load(); prev != nil && prev.stamp == st {
		s.mu.Unlock()
		sr := *prev
		sr.Cycle = s.cycles.Add(1)
		sr.TakenAt = start
		sr.Duration = time.Since(start)
		sr.Reused = true
		s.surveysReused.Add(1)
		s.lastSurveyNS.Store(int64(sr.Duration))
		s.latest.Store(&sr)
		return &sr, nil
	}
	ci := s.proj.Snapshot()
	var windowed []graph.Comment
	if s.cfg.ValidateHypergraph && len(s.log)-s.logStart > 0 {
		windowed = append(windowed, s.log[s.logStart:]...)
	}
	hyperDirty := s.logDirty
	s.logDirty = nil
	s.mu.Unlock()

	// Heavy lifting happens outside the lock, on the copies.
	var btm *graph.BTM
	if windowed != nil {
		btm = graph.BuildBTM(windowed, 0, 0)
	}
	res, cs := s.cycle.Run(ci, btm, hyperDirty)

	sr := &SurveyResult{
		Cycle:      s.cycles.Add(1),
		Watermark:  st.watermark,
		TakenAt:    start,
		Duration:   time.Since(start),
		Edges:      ci.NumEdges(),
		Vertices:   ci.NumAuthors(),
		Result:     res,
		CycleStats: cs,
		snap:       ci,
		btm:        btm,
		stamp:      st,
	}
	if p := res.Partition; p != nil {
		sr.Communities = len(res.Communities)
		sr.ReusedComponents, sr.ClusteredComponents = p.ReusedComponents, p.ClusteredComponents
		s.lastCommunities.Store(int64(sr.Communities))
		s.componentsReused.Add(int64(sr.ReusedComponents))
		s.componentsClustered.Add(int64(sr.ClusteredComponents))
	}
	if cs.Delta {
		s.deltaCycles.Add(1)
	} else {
		s.fullResurveys.Add(1)
	}
	s.orientEpoch.Store(cs.OrientEpoch)
	s.orientPatchedEdges.Store(cs.OrientPatchedEdges)
	s.orientRebuilds.Store(cs.OrientRebuilds)
	s.lastDirtyShards.Store(int64(cs.DirtyShards))
	s.lastDirtyVertices.Store(int64(cs.DirtyVertices))
	s.trianglesCached.Add(int64(cs.CachedTriangles))
	s.trianglesResurveyed.Add(int64(cs.ResurveyedTriangles))
	s.hyperCacheHits.Add(int64(res.HyperCacheHits))
	s.lastSurveyNS.Store(int64(sr.Duration))
	s.latest.Store(sr)
	return sr, nil
}

// Latest returns the most recently published survey (nil before the first).
func (s *Service) Latest() *SurveyResult { return s.latest.Load() }

// Ingested returns the number of comments applied to the live graph.
func (s *Service) Ingested() int64 { return s.ingested.Load() }

// Cycles returns the number of completed survey cycles.
func (s *Service) Cycles() int64 { return s.cycles.Load() }

// SurveysReused returns the number of cycles that republished the
// previous result because the stream was idle.
func (s *Service) SurveysReused() int64 { return s.surveysReused.Load() }

// DeltaCycles returns the number of survey cycles that ran the
// incremental path (dirty-frontier re-enumeration over a cached census).
func (s *Service) DeltaCycles() int64 { return s.deltaCycles.Load() }

// FullResurveys returns the number of cycles that enumerated the whole
// snapshot (the first cycle, or an incomparable snapshot).
func (s *Service) FullResurveys() int64 { return s.fullResurveys.Load() }

// TrianglesCached returns the cumulative count of triangles carried over
// from the previous cycle's census without re-enumeration.
func (s *Service) TrianglesCached() int64 { return s.trianglesCached.Load() }

// TrianglesResurveyed returns the cumulative count of triangles emitted
// by survey enumeration (full passes and dirty frontiers alike).
func (s *Service) TrianglesResurveyed() int64 { return s.trianglesResurveyed.Load() }

// HyperCacheHits returns the cumulative count of Step-3 validations
// served from the cross-cycle triplet memo.
func (s *Service) HyperCacheHits() int64 { return s.hyperCacheHits.Load() }

// OrientEpoch returns the stable-order epoch of the current persistent
// orientation (0 right after a from-scratch build).
func (s *Service) OrientEpoch() int64 { return s.orientEpoch.Load() }

// OrientPatchedEdges returns the edge patches applied to the current
// persistent orientation since it was last built from scratch.
func (s *Service) OrientPatchedEdges() int64 { return s.orientPatchedEdges.Load() }

// OrientRebuilds returns the drift-triggered re-orientations of the
// current persistent orientation since it was last built from scratch.
func (s *Service) OrientRebuilds() int64 { return s.orientRebuilds.Load() }

// Snapshot of live-side gauges for the stats endpoint.
type liveStats struct {
	watermark    int64
	livePairs    int64
	evictedPairs int64
	liveEdges    int
	buffered     int
	logged       int
	signals      []stream.SignalStat
}

func (s *Service) liveStats() liveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return liveStats{
		watermark:    s.proj.Watermark(),
		livePairs:    s.proj.LivePairs(),
		evictedPairs: s.proj.EvictedPairs(),
		liveEdges:    s.proj.NumEdges(),
		buffered:     s.proj.BufferedComments(),
		logged:       len(s.log) - s.logStart,
		signals:      s.proj.SignalStats(),
	}
}

// SignalNames returns the configured signals' names in breakdown order
// (always at least the default co-comment signal).
func (s *Service) SignalNames() []string { return s.signalNames }

// signalMix labels a per-signal weight vector with the signal names,
// dropping zero entries; nil in (single-signal stores) is nil out.
func (s *Service) signalMix(mix []uint64) map[string]uint64 {
	if mix == nil {
		return nil
	}
	out := make(map[string]uint64, len(mix))
	for si, w := range mix {
		if w > 0 && si < len(s.signalNames) {
			out[s.signalNames[si]] = w
		}
	}
	return out
}

// PairSignalMix sums the live per-signal breakdown over every unordered
// pair of the group — nil on single-signal stores. Same locking story as
// PairScore: per-shard read locks only, individually consistent reads.
func (s *Service) PairSignalMix(ids []graph.VertexID) []uint64 {
	var out []uint64
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if ids[i] == ids[j] {
				continue
			}
			ws := s.proj.SignalWeights(ids[i], ids[j])
			if ws == nil {
				return nil
			}
			if out == nil {
				out = make([]uint64, len(ws))
			}
			for si, w := range ws {
				out[si] += uint64(w)
			}
		}
	}
	return out
}

// PairScore reads live pairwise state for the score endpoint: CI weight
// between each user pair plus per-user P'. It deliberately does not take
// s.mu: the projector's point reads go through the sharded store's
// per-shard read locks, so scoring contends only with ingest writes to
// the same shard — never with a survey holding the service lock. The
// pairs are therefore individually (not jointly) consistent, which is
// all the endpoint promises for a live view.
func (s *Service) PairScore(ids []graph.VertexID) (weights map[[2]int]uint32, pageCounts []uint32) {
	weights = make(map[[2]int]uint32)
	pageCounts = make([]uint32, len(ids))
	for i := range ids {
		pageCounts[i] = s.proj.PageCount(ids[i])
		for j := i + 1; j < len(ids); j++ {
			if ids[i] == ids[j] {
				continue
			}
			weights[[2]int{i, j}] = s.proj.EdgeWeight(ids[i], ids[j])
		}
	}
	return weights, pageCounts
}
