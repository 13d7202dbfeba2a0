package main

// The traced run: one pass over all three workloads that re-composes each
// path from the layer packages (recompose.go) with a span around every
// call, checks each re-composition against the program's own output, and
// reports the per-layer metrics, the workload properties that decide
// whether an optimisation can show, the tracing overhead, and a
// GOMAXPROCS=1 baseline for replay and batch. End-to-end metrics never
// come from this run.

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/pipeline"
	"coordbot/internal/pushshift"
)

// liveLockstep is how many traced delta cycles the live phase runs.
const liveLockstep = 8

func runTraced(o options) (*Result, error) {
	res := newResult()
	logs := map[string]*spanLog{}
	if err := tracedReplay(o, res, logs); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := tracedLive(o, res, logs); err != nil {
		return nil, fmt.Errorf("traced live: %w", err)
	}
	if err := tracedBatch(o, res, logs); err != nil {
		return nil, fmt.Errorf("traced batch: %w", err)
	}
	dir := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := writeSpans(dir, logs); err != nil {
		return nil, err
	}
	return res, nil
}

// replayPass replays bodies into a shadow with tracing; it returns the
// shadow and the wall time of the timed (post-prefill) bodies.
func replayPass(l *spanLog, prefill, timed []body) (*shadow, float64, error) {
	sh, err := newShadow(daemonConfig(replayHorizon))
	if err != nil {
		return nil, 0, err
	}
	for i, b := range prefill {
		if _, err := sh.ingest(l, -int64(i)-1, b.ctype, b.data); err != nil {
			return nil, 0, err
		}
	}
	sh.jsonN, sh.frameN, sh.keys, sh.newIDs = 0, 0, 0, 0
	t0 := time.Now()
	for i, b := range timed {
		if _, err := sh.ingest(l, int64(i), b.ctype, b.data); err != nil {
			return nil, 0, err
		}
	}
	return sh, float64(time.Since(t0)), nil
}

// Request IDs: timed replay bodies and lockstep live cycles count from 0;
// everything the per-layer metrics leave out (prefill and catch-up
// bodies, set-up and final surveys) carries a negative ID.
const finalReq = -1 << 40

// timedReq selects the timed bodies of a replay pass.
func timedReq(req int64) bool { return req >= 0 }

// ingestLayerMetrics reports a traced replay pass's per-comment layer
// costs under names with the given suffix.
func ingestLayerMetrics(res *Result, l *spanLog, sh *shadow, suffix string) {
	n := float64(sh.jsonN + sh.frameN)
	self := l.selfByLayer(timedReq)
	res.set("wire.json_ns_per_comment"+suffix, "ns", sumNS(l.durs("wire.json", timedReq))/float64(sh.jsonN))
	res.set("wire.frame_ns_per_comment"+suffix, "ns", sumNS(l.durs("wire.frame", timedReq))/float64(sh.frameN))
	res.set("interner.intern_ns_per_comment"+suffix, "ns", sumNS(l.durs("interner.intern", timedReq))/n)
	res.set("stream.apply_ns_per_comment"+suffix, "ns", sumNS(l.durs("stream.apply", timedReq))/n)
	res.set("detectd.ingest_residual_ns_per_comment"+suffix, "ns", self["detectd"]/n)
}

func tracedReplay(o options, res *Result, logs map[string]*spanLog) error {
	in := newReplayInput(o.seed * 1000) // the first dataset of the untraced run
	prefill, timed := in.prefill, in.timed

	// The program's own pass, untraced: the reference output, the
	// untraced ingest time, and allocations per comment.
	svc, err := detectd.NewService(daemonConfig(replayHorizon))
	if err != nil {
		return err
	}
	for _, b := range prefill {
		ingestBody(res, svc, b)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for _, b := range timed {
		n += ingestBody(res, svc, b)
	}
	untraced := float64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	sr, err := svc.SurveyNow()
	if err != nil {
		return err
	}
	var stats detectd.StatsOut
	if err := get(svc.Handler(), "/v1/stats", &stats); err != nil {
		return err
	}

	l := newSpanLog(time.Now())
	logs["replay"] = l
	sh, traced, err := replayPass(l, prefill, timed)
	if err != nil {
		return err
	}
	got, _ := sh.survey(l, finalReq)
	checkShadow(res, "replay", svc, sh, sr.Result, got)
	if stats.LiveEdges != sh.proj.NumEdges() || stats.LivePairs != sh.proj.LivePairs() ||
		stats.EvictedPairs != sh.proj.EvictedPairs() || stats.Ingested != sh.proj.Count() ||
		stats.LoggedComments != len(sh.log)-sh.logStart || stats.Watermark != sh.proj.Watermark() {
		res.fail("replay: re-composed ingest state differs from /v1/stats %+v", stats)
	}

	ingestLayerMetrics(res, l, sh, "")
	res.set("interner.new_id_frac", "ratio", float64(sh.newIDs)/float64(sh.keys))
	res.set("interner.ids", "count", float64(sh.authors.Len()+sh.pages.Len()))
	res.set("stream.evicted_pairs_per_comment", "ratio", float64(sh.proj.EvictedPairs())/float64(sh.proj.Count()))
	res.set("stream.live_pairs", "count", float64(sh.proj.LivePairs()))
	res.set("graph.edges_live", "count", float64(sh.proj.NumEdges()))
	res.set("detectd.allocs_per_comment", "count", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	res.set("detectd.bytes_per_comment", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	live := map[graph.VertexID]bool{}
	for _, cm := range sh.log[sh.logStart:] {
		live[cm.Author] = true
	}
	res.set("bench.live_id_frac", "ratio", float64(len(live))/float64(sh.authors.Len()))
	res.set("bench.trace_overhead_frac_replay", "ratio", traced/untraced-1)
	res.set("bench.uncovered_frac_replay", "ratio", printSelf("replay ingest (traced re-composition)", l.selfByLayer(timedReq), traced))
	fmt.Printf("replay: %d comments, untraced IngestBytes %.0f ns/comment, traced re-composition %.0f ns/comment; %d of %d authors live in the final window\n",
		n, untraced/float64(n), traced/float64(n), len(live), sh.authors.Len())

	// Single-threaded baseline: the same traced pass at GOMAXPROCS=1.
	prev := runtime.GOMAXPROCS(1)
	l1 := newSpanLog(time.Now())
	logs["replay_p1"] = l1
	sh1, traced1, err := replayPass(l1, prefill, timed)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	got1, _ := sh1.survey(l1, finalReq)
	checkShadow(res, "replay at GOMAXPROCS=1", svc, sh1, sr.Result, got1)
	ingestLayerMetrics(res, l1, sh1, "_p1")
	fmt.Printf("replay: traced ingest %.0f ns/comment on %d cores vs %.0f at GOMAXPROCS=1 (%.2fx)\n",
		traced/float64(n), prev, traced1/float64(n), traced1/traced)
	return nil
}

// checkShadow compares a re-composed survey with the daemon's, and the
// re-composed interning with the daemon's name tables (same IDs).
func checkShadow(res *Result, what string, svc *detectd.Service, sh *shadow, want, got *pipeline.Result) {
	if sh.authors.Len() != svc.Authors().Len() || sh.pages.Len() != svc.Pages().Len() {
		res.fail("%s: re-composed interning has %d/%d IDs, daemon %d/%d", what,
			sh.authors.Len(), sh.pages.Len(), svc.Authors().Len(), svc.Pages().Len())
		return
	}
	for _, id := range []graph.VertexID{0, graph.VertexID(sh.authors.Len() - 1)} {
		if sh.authors.Name(id) != svc.Authors().Name(id) {
			res.fail("%s: author %d is %q, daemon %q", what, id, sh.authors.Name(id), svc.Authors().Name(id))
			return
		}
	}
	if got == nil {
		res.fail("%s: re-composed survey saw an empty window", what)
		return
	}
	if d := sameResult(want, got); d != "" {
		res.fail("%s: re-composed survey differs from the daemon's: %s", what, d)
	}
}

func tracedLive(o options, res *Result, logs map[string]*spanLog) error {
	s := newLiveSession(o.seed, o.seconds)
	if _, err := s.setup(res); err != nil {
		return err
	}
	defer s.close()
	l := newSpanLog(time.Now())
	logs["live_survey"] = l
	sh, err := newShadow(daemonConfig(liveHorizon))
	if err != nil {
		return err
	}
	for i, b := range s.prefill {
		if _, err := sh.ingest(l, -int64(i)-1, b.ctype, b.data); err != nil {
			return err
		}
	}
	got, _ := sh.survey(l, finalReq)
	checkShadow(res, "live set-up", s.svc, sh, s.svc.Latest().Result, got)

	// Open loop with a span around every handler call and survey.
	var loop [3]*spanLog
	for i := range loop {
		loop[i] = newSpanLog(time.Now())
	}
	logs["live_ingest"], logs["live_reads"], logs["live_surveys"] = loop[0], loop[1], loop[2]
	prefilled := s.svc.Ingested()
	st := s.openLoop(res, time.Duration(o.seconds)*time.Second, &loop)
	if err := s.quiesce(prefilled + int64(st.comments)); err != nil {
		return err
	}
	rejected := 0
	for _, a := range st.accepted {
		if !a {
			rejected++
		}
	}
	pct := func(name string, q, scale float64) float64 { return quantile(loop[1].durs(name, nil), q) / scale }
	res.set("detectd.http_ingest_us", "us", median(loop[0].durs("detectd.http_ingest", nil))/1e3)
	res.set("detectd.rejected", "count", float64(rejected))
	res.set("detectd.score_us_p50", "us", pct("detectd.score", 0.5, 1e3))
	res.set("detectd.score_us_p99", "us", pct("detectd.score", 0.99, 1e3))
	res.set("detectd.triangles_ms_p50", "ms", pct("detectd.triangles", 0.5, 1e6))
	res.set("detectd.triangles_ms_p99", "ms", pct("detectd.triangles", 0.99, 1e6))
	res.set("detectd.communities_ms_p50", "ms", pct("detectd.communities", 0.5, 1e6))
	res.set("detectd.communities_ms_p99", "ms", pct("detectd.communities", 0.99, 1e6))
	res.set("bench.gen_late_ms_p99", "ms", quantile(st.late, 0.99))

	// Catch the shadow up with everything the open loop fed, then run
	// lockstep cycles: the same bodies into both, one daemon SurveyNow and
	// one traced re-composed survey per cycle.
	for j, bi := range st.sentBody {
		if b := s.stream[bi]; st.accepted[j] {
			if _, err := sh.ingest(l, finalReq+int64(bi), b.ctype, b.data); err != nil {
				return err
			}
		}
	}
	sr, err := s.svc.SurveyNow()
	if err != nil {
		return err
	}
	got, _ = sh.survey(l, finalReq)
	checkShadow(res, "live catch-up cycle", s.svc, sh, sr.Result, got)

	per := int(liveCadence.Seconds() * liveRate / liveBody)
	var daemonMS, shadowMS []float64
	var cs []cycleStats
	var last *pipeline.Result
	for k := 0; k < liveLockstep && s.next+per <= len(s.stream); k++ {
		for bi, b := range s.stream[s.next : s.next+per] {
			res.Attempted++
			if code := serve(s.h, http.MethodPost, "/v1/ingest", b.ctype, b.data); code != http.StatusAccepted {
				res.Failed++
				continue
			}
			if _, err := sh.ingest(l, finalReq+int64(s.next+bi), b.ctype, b.data); err != nil {
				return err
			}
			prefilled += int64(b.n)
			s.fed = append(s.fed, s.c.comments[b.first:b.first+b.n]...)
		}
		s.next += per
		if err := s.quiesce(prefilled + int64(st.comments)); err != nil {
			return err
		}
		sr, err := s.svc.SurveyNow()
		res.Attempted++
		if err != nil {
			res.Failed++
			continue
		}
		t0 := time.Now()
		got, cst := sh.survey(l, int64(k))
		shadowMS = append(shadowMS, float64(time.Since(t0))/1e6)
		daemonMS = append(daemonMS, float64(sr.Duration)/1e6)
		checkShadow(res, fmt.Sprintf("live lockstep cycle %d", k), s.svc, sh, sr.Result, got)
		if got != nil && (len(got.Triangles) == 0 || len(got.Communities) == 0) {
			res.fail("live lockstep cycle %d: empty census", k)
		}
		cs = append(cs, cst)
		last = got
	}
	if len(cs) == 0 || last == nil {
		return fmt.Errorf("no lockstep cycle ran")
	}
	res.set("bench.planted_triangle_frac_live", "ratio", plantedFrac(s.c, last, sh.authors.Name))
	lock := func(req int64) bool { return req >= 0 }
	perCycle := func(name string, scale float64) float64 {
		tot := map[int64]float64{}
		for _, sp := range l.spans {
			if sp.Name == name && lock(sp.Req) {
				tot[sp.Req] += float64(sp.End - sp.Start)
			}
		}
		vals := make([]float64, 0, len(tot))
		for _, v := range tot {
			vals = append(vals, v/scale)
		}
		return median(vals)
	}
	prop := func(f func(c cycleStats) float64) float64 {
		vals := make([]float64, len(cs))
		for i, c := range cs {
			vals[i] = f(c)
		}
		return median(vals)
	}
	res.set("detectd.log_copy_ms", "ms", perCycle("detectd.log_copy", 1e6))
	res.set("graph.btm_build_ms", "ms", perCycle("graph.btm_build", 1e6))
	res.set("graph.snapshot_us", "us", perCycle("graph.snapshot", 1e3))
	res.set("graph.threshold_delta_ms", "ms", perCycle("graph.threshold_delta", 1e6))
	res.set("tripoll.orient_patch_ms", "ms", perCycle("tripoll.orient_patch", 1e6))
	res.set("tripoll.survey_dirty_ms", "ms", perCycle("tripoll.survey_dirty", 1e6))
	res.set("hypergraph.validate_ms", "ms", perCycle("hypergraph.validate", 1e6))
	res.set("pipeline.components_ms", "ms", perCycle("pipeline.components", 1e6))
	res.set("community.detect_warm_ms", "ms", perCycle("community.detect_warm", 1e6))
	res.set("community.score_ms", "ms", perCycle("community.score", 1e6))
	res.set("graph.dirty_vertices", "count", prop(func(c cycleStats) float64 { return float64(c.dirty) }))
	res.set("tripoll.cached_frac", "ratio", prop(func(c cycleStats) float64 { return float64(c.cached) / float64(c.triangles) }))
	res.set("hypergraph.evaluated", "count", prop(func(c cycleStats) float64 { return float64(c.evaluated) }))
	res.set("hypergraph.memo_hit_frac", "ratio", prop(func(c cycleStats) float64 { return float64(c.memoHits) / float64(c.triangles) }))
	res.set("community.reused_frac", "ratio", prop(func(c cycleStats) float64 { return float64(c.reusedComps) / float64(c.comps) }))
	self := l.selfByLayer(lock)
	res.set("detectd.survey_residual_ms", "ms", self["detectd"]/float64(len(cs))/1e6)
	res.set("bench.trace_overhead_frac_live", "ratio", median(shadowMS)/median(daemonMS)-1)
	res.set("bench.uncovered_frac_live", "ratio", printSelf("live delta cycles (traced re-composition)", self, sumNS(shadowMS)*1e6))
	fmt.Printf("live: lockstep cycle p50: daemon SurveyResult.Duration %.1f ms, traced re-composition %.1f ms; %d rejected ingests\n",
		median(daemonMS), median(shadowMS), rejected)
	return nil
}

// plantedFrac is the share of census triangles whose three authors belong
// to one planted campaign.
func plantedFrac(c *corpus, r *pipeline.Result, name func(graph.VertexID) string) float64 {
	if len(r.Triangles) == 0 {
		return 0
	}
	campaign := map[string]string{}
	for camp, members := range c.truth {
		for _, m := range members {
			campaign[c.authors[m]] = camp
		}
	}
	n := 0
	for _, tr := range r.Triangles {
		cx := campaign[name(tr.X)]
		if cx != "" && cx == campaign[name(tr.Y)] && cx == campaign[name(tr.Z)] {
			n++
		}
	}
	return float64(n) / float64(len(r.Triangles))
}

// batchLayerMetrics reports a traced decode + pipeline run in seconds.
func batchLayerMetrics(res *Result, l *spanLog, suffix string) {
	secs := func(name string) float64 { return sumNS(l.durs(name, nil)) / 1e9 }
	res.set("projection.project_s"+suffix, "s", secs("projection.project"))
	res.set("tripoll.survey_s"+suffix, "s", secs("tripoll.orient")+secs("tripoll.survey"))
	res.set("hypergraph.validate_s"+suffix, "s", secs("hypergraph.validate"))
	res.set("pipeline.components_s"+suffix, "s", secs("pipeline.components"))
	res.set("community.detect_s"+suffix, "s", secs("community.detect"))
	res.set("community.score_s"+suffix, "s", secs("community.score"))
}

// tracedDecode is the batch set-up with spans (outside the run's request).
func tracedDecode(l *spanLog, archive []byte) (*pushshift.Corpus, *graph.BTM, map[graph.VertexID]bool, error) {
	id := l.begin("pushshift.decode", finalReq)
	corp, exclude, err := readArchive(archive)
	l.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	var b *graph.BTM
	l.around("graph.btm_build", finalReq, func() { b = corp.BTM() })
	return corp, b, exclude, nil
}

func tracedBatch(o options, res *Result, logs map[string]*spanLog) error {
	in, err := newBatchInput(o.seed * batchDatasets) // the untraced run's first dataset
	if err != nil {
		return err
	}
	c, archive := in.c, in.archive
	plain, exclude, err := readArchive(archive)
	if err != nil {
		return err
	}
	t0 := time.Now()
	want, err := pipeline.Run(plain.BTM(), pipelineConfig(exclude))
	if err != nil {
		return err
	}
	untraced := float64(time.Since(t0))

	l := newSpanLog(time.Now())
	logs["batch"] = l
	corp, b, exclude, err := tracedDecode(l, archive)
	if err != nil {
		return err
	}
	t1 := time.Now()
	got, err := tracedRun(l, 0, b, pipelineConfig(exclude))
	if err != nil {
		return err
	}
	traced := float64(time.Since(t1))
	if d := sameResult(want, got); d != "" {
		res.fail("batch: re-composed pipeline.Run differs: %s", d)
	}
	checkBatch(res, c, got, corp.Authors.Lookup)
	res.set("pushshift.decode_s", "s", sumNS(l.durs("pushshift.decode", nil))/1e9)
	res.set("graph.btm_build_s", "s", sumNS(l.durs("graph.btm_build", nil))/1e9)
	batchLayerMetrics(res, l, "")
	res.set("bench.planted_triangle_frac_batch", "ratio", plantedFrac(c, got, corp.Authors.Name))
	res.set("bench.trace_overhead_frac_batch", "ratio", traced/untraced-1)
	self := l.selfByLayer(func(req int64) bool { return req == 0 })
	res.set("bench.uncovered_frac_batch", "ratio", printSelf("batch pipeline.Run (traced re-composition)", self, traced))
	tm := want.Timings
	fmt.Printf("batch: pipeline.Timings project %.3fs survey %.3fs validate %.3fs components %.3fs cluster %.3fs; traced spans %.3f/%.3f/%.3f/%.3f/%.3f s\n",
		tm.Project.Seconds(), tm.Survey.Seconds(), tm.Validate.Seconds(), tm.Component.Seconds(), tm.Cluster.Seconds(),
		res.Metrics["projection.project_s"].Value,
		sumNS(l.durs("graph.threshold", nil))/1e9+res.Metrics["tripoll.survey_s"].Value,
		(sumNS(l.durs("pipeline.results", nil))+sumNS(l.durs("hypergraph.validate", nil)))/1e9,
		res.Metrics["pipeline.components_s"].Value,
		res.Metrics["community.detect_s"].Value+res.Metrics["community.score_s"].Value)

	prev := runtime.GOMAXPROCS(1)
	l1 := newSpanLog(time.Now())
	logs["batch_p1"] = l1
	_, b1, exclude1, err := tracedDecode(l1, archive)
	var got1 *pipeline.Result
	if err == nil {
		got1, err = tracedRun(l1, 0, b1, pipelineConfig(exclude1))
	}
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	if d := sameResult(want, got1); d != "" {
		res.fail("batch at GOMAXPROCS=1: re-composed pipeline.Run differs: %s", d)
	}
	batchLayerMetrics(res, l1, "_p1")
	fmt.Printf("batch: traced pipeline.Run %.2f s on %d cores vs %.2f s at GOMAXPROCS=1\n",
		traced/1e9, prev, sumNS(l1.durs("pipeline.run", nil))/1e9)
	return nil
}
