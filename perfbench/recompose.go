package main

// Traced re-compositions. Each function below performs, call for call, what
// a program entry point does — Service.IngestBytes, Service.SurveyNow,
// pipeline.Run — but from the layer packages' public functions, with a
// span around every call, so the traced run can charge time to layers
// without changing program code. The traced suite checks every
// re-composition's output against the program's own.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"

	"coordbot/internal/community"
	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/interner"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/stream"
	"coordbot/internal/tripoll"
	"coordbot/internal/wire"
)

// shadow holds the state of a detectd.Service, rebuilt from its layers.
type shadow struct {
	cfg                        detectd.Config
	authors, pages, urls, tags *interner.Interner
	proj                       *stream.SlidingProjector
	applyBuf                   []graph.Comment
	log                        []graph.Comment
	logStart                   int
	logDirty                   map[graph.VertexID]bool
	cache                      *shadowCache

	scan           wire.Scanner
	views          []wire.Comment
	authorK, pageK [][]byte
	authorI, pageI []interner.ID

	// Ingest counters: comments per wire format, interned keys and the
	// IDs they created.
	jsonN, frameN, keys, newIDs int64
}

// shadowCache mirrors the daemon's cross-cycle survey state.
type shadowCache struct {
	snap, pruned *graph.CISnapshot
	tris         []tripoll.Triangle
	hyper        map[hypergraph.Triplet]hypergraph.Score
	oriented     *tripoll.Oriented
	partition    *community.Partition
}

// cycleStats are the workload properties one survey cycle exposes.
type cycleStats struct {
	delta                    bool
	dirty, cached, triangles int
	evaluated, memoHits      int
	reusedComps, comps       int
}

// newShadow mirrors detectd.NewService for a co-comment-only config.
func newShadow(cfg detectd.Config) (*shadow, error) {
	authors := interner.New(1 << 12)
	exclude := make(map[graph.VertexID]bool, len(cfg.Exclude))
	for _, name := range cfg.Exclude {
		exclude[authors.Intern(name)] = true
	}
	sigs := []stream.SignalConfig{{Signal: projection.CoComment{W: cfg.Window}}}
	proj, err := stream.NewMultiSlidingProjectorWorkers(sigs, cfg.Horizon, projection.Options{Exclude: exclude}, cfg.Shards, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	return &shadow{
		cfg: cfg, authors: authors, pages: interner.New(1 << 12),
		urls: interner.New(1 << 8), tags: interner.New(1 << 8), proj: proj,
	}, nil
}

// ingest re-composes Service.IngestBytes: wire decode, validation, batch
// interning, batch assembly, late clamping, the projector batch and the
// validation log. Returns the comments applied.
func (s *shadow) ingest(l *spanLog, req int64, ctype string, data []byte) (int, error) {
	root := l.begin("detectd.ingest", req)
	defer l.end(root)

	isFrame := strings.HasPrefix(ctype, wire.ContentTypeFrame)
	var rd wire.Reader
	var err error
	name := "wire.json"
	if isFrame {
		name = "wire.frame"
	}
	l.around(name, req, func() {
		if isFrame {
			var f *wire.FrameScanner
			if f, err = wire.NewFrameScanner(data); err != nil {
				return
			}
			rd = f
		} else {
			s.scan.Reset(data)
			rd = &s.scan
		}
		s.views = s.views[:0]
		var c wire.Comment
		for {
			var ok bool
			if ok, err = rd.Next(&c); err != nil || !ok {
				return
			}
			s.views = append(s.views, c)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("decode: %v", err)
	}
	for i := range s.views {
		v := &s.views[i]
		if len(v.Author) == 0 || len(v.Page) == 0 {
			return 0, fmt.Errorf("comment %d: empty author or page", i)
		}
		if v.HasAttrs() {
			return 0, fmt.Errorf("comment %d: signal attributes are not re-composed", i)
		}
	}
	n := len(s.views)
	if isFrame {
		s.frameN += int64(n)
	} else {
		s.jsonN += int64(n)
	}
	s.authorK, s.pageK = s.authorK[:0], s.pageK[:0]
	for i := range s.views {
		s.authorK = append(s.authorK, s.views[i].Author)
		s.pageK = append(s.pageK, s.views[i].Page)
	}
	s.authorI, s.pageI = growIDs(s.authorI, n), growIDs(s.pageI, n)
	l.around("interner.intern", req, func() {
		before := s.authors.Len() + s.pages.Len()
		s.authors.InternBatchBytes(s.authorK, s.authorI)
		s.pages.InternBatchBytes(s.pageK, s.pageI)
		s.urls.InternBatchBytes(nil, nil)
		s.tags.InternBatchBytes(nil, nil)
		s.keys += int64(2 * n)
		s.newIDs += int64(s.authors.Len() + s.pages.Len() - before)
	})
	batch := make([]graph.Comment, n)
	for i := range s.views {
		batch[i] = graph.Comment{Author: graph.VertexID(s.authorI[i]), Page: graph.VertexID(s.pageI[i]), TS: s.views[i].TS}
	}

	// Service.Apply: clamp late comments into the staging batch, one
	// projector batch, then the validation log.
	wm := s.proj.Watermark()
	for _, c := range batch {
		if c.TS < wm {
			c.TS = wm
		} else {
			wm = c.TS
		}
		s.applyBuf = append(s.applyBuf, c)
	}
	before := s.proj.Count()
	l.around("stream.apply", req, func() { err = s.proj.AddBatch(s.applyBuf) })
	applied := int(s.proj.Count() - before)
	if err != nil {
		return applied, err
	}
	for _, c := range s.applyBuf[:applied] {
		s.log = append(s.log, c)
		s.markDirty(c.Author)
	}
	cutTS := s.proj.Watermark() - s.cfg.Horizon
	for s.logStart < len(s.log) && s.log[s.logStart].TS <= cutTS {
		s.markDirty(s.log[s.logStart].Author)
		s.logStart++
	}
	if s.logStart > 1024 && s.logStart*2 > len(s.log) {
		s.log = append(s.log[:0], s.log[s.logStart:]...)
		s.logStart = 0
	}
	s.applyBuf = s.applyBuf[:0]
	return applied, nil
}

func growIDs(ids []interner.ID, n int) []interner.ID {
	if cap(ids) < n {
		return make([]interner.ID, n)
	}
	return ids[:n]
}

func (s *shadow) markDirty(a graph.VertexID) {
	if s.logDirty == nil {
		s.logDirty = make(map[graph.VertexID]bool)
	}
	s.logDirty[a] = true
}

// survey re-composes Service.SurveyNow (and the pipeline.RunOnTriangles
// it calls) for a daemon with hypergraph validation and communities on.
func (s *shadow) survey(l *spanLog, req int64) (*pipeline.Result, cycleStats) {
	root := l.begin("detectd.survey", req)
	defer l.end(root)
	var st cycleStats

	var windowed []graph.Comment
	l.around("detectd.log_copy", req, func() {
		windowed = append(windowed, s.log[s.logStart:]...)
	})
	var ci *graph.CISnapshot
	l.around("graph.snapshot", req, func() { ci = s.proj.Snapshot() })
	hyperDirty := s.logDirty
	s.logDirty = nil
	var btm *graph.BTM
	if len(windowed) == 0 {
		return nil, st // the stream workloads never survey an empty window
	}
	l.around("graph.btm_build", req, func() { btm = graph.BuildBTM(windowed, 0, 0) })

	cutW := uint32(cut)
	cache := s.cache
	var dirty map[graph.VertexID]bool
	if cache != nil {
		l.around("graph.dirty_vertices", req, func() { dirty, _, st.delta = ci.DirtyVertices(cache.snap) })
	}
	var (
		pruned   *graph.CISnapshot
		oriented *tripoll.Oriented
		tris     []tripoll.Triangle
	)
	sopts := tripoll.Options{MinTriangleWeight: cutW}
	if st.delta {
		l.around("graph.threshold_delta", req, func() { pruned = ci.ThresholdDelta(cache.snap, cache.pruned, cutW) })
		kept := make([]tripoll.Triangle, 0, len(cache.tris))
		for _, tr := range cache.tris {
			if !dirty[tr.X] && !dirty[tr.Y] && !dirty[tr.Z] {
				kept = append(kept, tr)
			}
		}
		l.around("tripoll.orient_patch", req, func() {
			if o := cache.oriented; o != nil {
				if patches, _, ok := pruned.EdgePatches(cache.pruned); ok {
					cache.oriented = nil
					o.ApplyPatches(patches)
					oriented = o
				}
			}
			if oriented == nil {
				oriented = tripoll.Orient(pruned.BuildAdjacency())
			}
		})
		l.around("tripoll.survey_dirty", req, func() {
			var fresh []tripoll.Triangle
			oriented.SurveyDirty(sopts, dirty, nil, func(tr tripoll.Triangle) { fresh = append(fresh, tr) })
			tripoll.SortTriangles(fresh)
			tris = tripoll.MergeSorted(kept, fresh)
		})
		st.dirty, st.cached = len(dirty), len(kept)
	} else {
		l.around("graph.threshold", req, func() { pruned = ci.ThresholdView(cutW).(*graph.CISnapshot) })
		l.around("tripoll.orient", req, func() { oriented = tripoll.Orient(pruned.BuildAdjacency()) })
		l.around("tripoll.survey", req, func() { tris = oriented.SurveyParallel(sopts, nil) })
		st.dirty = ci.NumAuthors()
	}
	st.triangles = len(tris)

	var hyper map[hypergraph.Triplet]hypergraph.Score
	if cache != nil && cache.hyper != nil {
		hyper = cache.hyper
		for t := range hyper {
			if hyperDirty[t.X] || hyperDirty[t.Y] || hyperDirty[t.Z] {
				delete(hyper, t)
			}
		}
	} else {
		hyper = make(map[hypergraph.Triplet]hypergraph.Score)
	}

	// pipeline.RunOnTriangles (MinTScore is 0, so no T-score cut).
	res := &pipeline.Result{Config: pipeline.Config{Window: s.cfg.Window, MinTriangleWeight: cutW}, CI: ci}
	var missing []hypergraph.Triplet
	var missingAt []int
	l.around("pipeline.results", req, func() {
		res.Triangles = make([]pipeline.TriangleResult, len(tris))
		for i, tr := range tris {
			res.Triangles[i] = pipeline.TriangleResult{Triangle: tr, T: tr.TScore(ci.PageCount)}
			t := hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z}
			if sc, ok := hyper[t]; ok {
				res.Triangles[i].Hyper = sc
				res.HyperCacheHits++
				continue
			}
			missing = append(missing, t)
			missingAt = append(missingAt, i)
		}
	})
	l.around("hypergraph.validate", req, func() {
		for k, sc := range hypergraph.EvaluateAll(btm, missing, 0) {
			res.Triangles[missingAt[k]].Hyper = sc
			hyper[missing[k]] = sc
		}
	})
	st.evaluated, st.memoHits = len(missing), res.HyperCacheHits
	res.Thresholded = pruned
	l.around("pipeline.components", req, func() { res.Components = graph.ConnectedComponents(pruned) })

	ccfg := s.cfg.Community.Defaults()
	var prevPart *community.Partition
	var warmDirty map[graph.VertexID]bool
	if st.delta && cache != nil {
		prevPart, warmDirty = cache.partition, dirty
	}
	l.around("community.detect_warm", req, func() {
		res.Partition = community.DetectWarm(pruned, ccfg, prevPart, warmDirty)
	})
	l.around("community.score", req, func() {
		kept := make([]tripoll.Triangle, len(res.Triangles))
		for i := range res.Triangles {
			kept[i] = res.Triangles[i].Triangle
		}
		res.Communities = community.ScoreCommunities(res.Partition, pruned, btm, kept, ccfg.MinSize)
	})
	st.reusedComps = res.Partition.ReusedComponents
	st.comps = res.Partition.ReusedComponents + res.Partition.ClusteredComponents
	s.cache = &shadowCache{snap: ci, pruned: pruned, tris: tris, hyper: hyper, oriented: oriented, partition: res.Partition}
	return res, st
}

// tracedRun re-composes pipeline.Run for cfg (memory transport: the
// ygm-backed projection.Project, then the orient-once survey, Step-3
// validation, components and cold communities).
func tracedRun(l *spanLog, req int64, b *graph.BTM, cfg pipeline.Config) (*pipeline.Result, error) {
	root := l.begin("pipeline.run", req)
	defer l.end(root)
	res := &pipeline.Result{Config: cfg}
	var ci *graph.CIGraph
	var err error
	l.around("projection.project", req, func() {
		ci, err = projection.Project(b, cfg.Window, projection.Options{Exclude: cfg.Exclude, Restrict: cfg.Restrict, Ranks: cfg.Ranks})
	})
	if err != nil {
		return nil, fmt.Errorf("projection: %w", err)
	}
	res.CI = ci
	sopts := tripoll.Options{MinTriangleWeight: cfg.MinTriangleWeight, Ranks: cfg.Ranks}
	var thresholded graph.CIView
	var adj *graph.Adjacency
	l.around("graph.threshold", req, func() {
		thresholded = ci.ThresholdView(tripoll.EffectiveEdgeCut(sopts))
		adj = thresholded.BuildAdjacency()
	})
	var o *tripoll.Oriented
	l.around("tripoll.orient", req, func() { o = tripoll.Orient(adj) })
	var tris []tripoll.Triangle
	l.around("tripoll.survey", req, func() { tris = o.SurveyParallel(sopts, ci.PageCount) })
	triplets := make([]hypergraph.Triplet, len(tris))
	l.around("pipeline.results", req, func() {
		res.Triangles = make([]pipeline.TriangleResult, len(tris))
		for i, tr := range tris {
			res.Triangles[i] = pipeline.TriangleResult{Triangle: tr, T: tr.TScore(ci.PageCount)}
			triplets[i] = hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z}
		}
	})
	l.around("hypergraph.validate", req, func() {
		if len(triplets) == 0 {
			return
		}
		for i, sc := range hypergraph.EvaluateAll(b, triplets, cfg.Ranks) {
			res.Triangles[i].Hyper = sc
		}
	})
	res.Thresholded = thresholded
	l.around("pipeline.components", req, func() { res.Components = graph.ConnectedComponents(thresholded) })
	ccfg := cfg.Community.Defaults()
	l.around("community.detect", req, func() { res.Partition = community.Detect(thresholded, ccfg) })
	l.around("community.score", req, func() {
		kept := make([]tripoll.Triangle, len(res.Triangles))
		for i := range res.Triangles {
			kept[i] = res.Triangles[i].Triangle
		}
		res.Communities = community.ScoreCommunities(res.Partition, thresholded, b, kept, ccfg.MinSize)
	})
	return res, nil
}

// sameResult reports where two pipeline results over one ID space differ
// ("" when they agree): census with T and Step-3 scores, components,
// partition and scored communities.
func sameResult(a, b *pipeline.Result) string {
	switch {
	case !reflect.DeepEqual(a.Triangles, b.Triangles):
		return fmt.Sprintf("triangles (%d vs %d)", len(a.Triangles), len(b.Triangles))
	case !reflect.DeepEqual(a.Components, b.Components):
		return fmt.Sprintf("components (%d vs %d)", len(a.Components), len(b.Components))
	case (a.Partition == nil) != (b.Partition == nil) || (a.Partition != nil && !a.Partition.Equal(b.Partition)):
		return "partition"
	case !reflect.DeepEqual(a.Communities, b.Communities):
		return fmt.Sprintf("communities (%d vs %d)", len(a.Communities), len(b.Communities))
	}
	return ""
}
