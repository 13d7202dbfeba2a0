package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/interner"
	"coordbot/internal/pipeline"
	"coordbot/internal/stats"
)

// get issues one in-process GET against h and decodes a 200 response.
func get(h http.Handler, url string, out any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// daemonView is what the stream workloads' check reads from a quiesced
// daemon after its final survey.
type daemonView struct {
	tri            detectd.TrianglesOut
	comm           detectd.CommunitiesOut
	stats          detectd.StatsOut
	authors, pages *interner.Interner
}

func viewDaemon(svc *detectd.Service) (*daemonView, error) {
	v := &daemonView{authors: svc.Authors(), pages: svc.Pages()}
	h := svc.Handler()
	for _, q := range []struct {
		url string
		out any
	}{{"/v1/triangles", &v.tri}, {"/v1/communities", &v.comm}, {"/v1/stats", &v.stats}} {
		if err := get(h, q.url, q.out); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// checkDaemon is the stream workloads' correctness check: the published
// /v1/triangles census (authors, min weight, T, w_xyz, C) and
// /v1/communities must equal a cold pipeline.Run (communities on) over
// exactly the fed comments with TS > watermark - horizon, interned into
// the daemon's own ID space so that vertex-ID-seeded clustering sees the
// same graph; the ingested, logged comment and live edge counts must
// match the window too.
func checkDaemon(res *Result, v *daemonView, c *corpus, fed []graph.Comment, horizon int64) error {
	var window []graph.Comment
	for _, cm := range fed {
		if cm.TS <= v.tri.Watermark-horizon {
			continue
		}
		a, okA := v.authors.Lookup(c.authors[cm.Author])
		p, okP := v.pages.Lookup(c.pages[cm.Page])
		if !okA || !okP {
			res.fail("comment by %q on %q was fed but is not interned", c.authors[cm.Author], c.pages[cm.Page])
			return nil
		}
		window = append(window, graph.Comment{Author: a, Page: p, TS: cm.TS})
	}
	btm := graph.BuildBTM(window, v.authors.Len(), v.pages.Len())
	exclude := map[graph.VertexID]bool{}
	for _, name := range []string{helperAuthor, helperDelete} {
		if id, ok := v.authors.Lookup(name); ok {
			exclude[id] = true
		}
	}
	want, err := pipeline.Run(btm, pipelineConfig(exclude))
	if err != nil {
		return fmt.Errorf("oracle pipeline.Run: %w", err)
	}
	if v.stats.Ingested != int64(len(fed)) || v.stats.LoggedComments != len(window) || v.stats.LiveEdges != want.CI.NumEdges() {
		res.fail("daemon holds %d ingested, %d logged comments and %d live edges; want %d, %d and %d",
			v.stats.Ingested, v.stats.LoggedComments, v.stats.LiveEdges, len(fed), len(window), want.CI.NumEdges())
	}
	compareCensus(res, "daemon vs cold pipeline.Run", v.tri, v.comm, want, v.authors.Name)
	fmt.Printf("check: watermark %d, %d window comments, %d live edges, census %d triangles, %d communities: daemon ≡ cold pipeline.Run: %v\n",
		v.tri.Watermark, len(window), v.stats.LiveEdges, v.tri.Total, v.comm.Total, res.Correct)
	return nil
}

// archiveRun times a cold pipeline.Run over every comment of c — the
// batch job a user could run instead of streaming the archive — in
// seconds.
func archiveRun(c *corpus) (float64, error) {
	btm := graph.BuildBTM(c.comments, len(c.authors), len(c.pages))
	runtime.GC()
	t0 := time.Now()
	if _, err := pipeline.Run(btm, pipelineConfig(c.helpers)); err != nil {
		return 0, fmt.Errorf("archive pipeline.Run: %w", err)
	}
	return elapsed(t0), nil
}

// compareCensus checks published /v1/triangles and /v1/communities
// responses against a pipeline result in the same ID space.
func compareCensus(res *Result, what string, tri detectd.TrianglesOut, comm detectd.CommunitiesOut, want *pipeline.Result, name func(graph.VertexID) string) {
	if tri.Total != len(want.Triangles) || len(tri.Triangles) != len(want.Triangles) {
		res.fail("%s: census has %d triangles (%d listed), want %d", what, tri.Total, len(tri.Triangles), len(want.Triangles))
		return
	}
	exp := make(map[[3]string]pipeline.TriangleResult, len(want.Triangles))
	for _, tr := range want.Triangles {
		exp[[3]string{name(tr.X), name(tr.Y), name(tr.Z)}] = tr
	}
	for _, got := range tri.Triangles {
		w, ok := exp[got.Authors]
		if !ok || got.MinWeight != w.MinWeight() || got.T != w.T ||
			got.WXYZ == nil || *got.WXYZ != w.Hyper.W || got.C == nil || *got.C != w.Hyper.C {
			res.fail("%s: triangle %v differs (present %v)", what, got.Authors, ok)
			return
		}
	}
	if comm.Total != len(want.Communities) || len(comm.Communities) != len(want.Communities) {
		res.fail("%s: %d communities, want %d", what, comm.Total, len(want.Communities))
		return
	}
	for i, cs := range want.Communities {
		got := comm.Communities[i]
		members := make([]string, len(cs.Members))
		for j, m := range cs.Members {
			members[j] = name(m)
		}
		if got.ID != cs.ID || got.Size != cs.Size || got.InternalWeight != cs.InternalWeight ||
			got.Density != cs.Density || got.C != cs.C || got.WS != cs.WS || got.CS != cs.CS ||
			got.Triangles != cs.Triangles || fmt.Sprint(got.Members) != fmt.Sprint(members) {
			res.fail("%s: community %d differs", what, i)
			return
		}
	}
}

// checkBatch is X7's check: the planted campaigns are recovered with
// NMI >= 0.8 against the generator's truth, and no community holding a
// benign cohort member reaches C >= 0.5. lookup maps a corpus author name
// to the pipeline's vertex ID.
func checkBatch(res *Result, c *corpus, pr *pipeline.Result, lookup func(string) (graph.VertexID, bool)) {
	campaigns := make([]string, 0, len(c.truth))
	for name := range c.truth {
		campaigns = append(campaigns, name)
	}
	sort.Strings(campaigns)
	var truthL, gotL []int
	fresh := len(pr.Partition.Communities)
	for ci, name := range campaigns {
		for _, m := range c.truth[name] {
			truthL = append(truthL, ci)
			id, ok := lookup(c.authors[m])
			if k, in := pr.Partition.Comm[id]; ok && in {
				gotL = append(gotL, k)
			} else {
				gotL = append(gotL, fresh)
				fresh++
			}
		}
	}
	nmi := stats.NMI(truthL, gotL)
	byID := make(map[int]float64, len(pr.Communities))
	for _, cs := range pr.Communities {
		byID[cs.ID] = cs.C
	}
	maxC := 0.0
	for _, members := range c.benign {
		for _, m := range members {
			id, ok := lookup(c.authors[m])
			if k, in := pr.Partition.Comm[id]; ok && in && byID[k] > maxC {
				maxC = byID[k]
			}
		}
	}
	fmt.Printf("check: %d planted members in %d campaigns, NMI %.3f (>= 0.8); benign cohort max community C %.3f (< 0.5); %d triangles, %d communities\n",
		len(truthL), len(campaigns), nmi, maxC, len(pr.Triangles), len(pr.Communities))
	if !(nmi >= 0.8) {
		res.fail("batch: planted campaigns recovered with NMI %.3f < 0.8", nmi)
	}
	if maxC >= 0.5 {
		res.fail("batch: benign cohort reached community C %.3f >= 0.5", maxC)
	}
	if len(pr.Triangles) == 0 || len(pr.Communities) == 0 {
		res.fail("batch: empty census")
	}
}
