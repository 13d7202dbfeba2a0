package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"coordbot/internal/detectd"
	"coordbot/internal/graph"
)

// Stream workload sizing.
const (
	replaySegments = 2
	replayHorizon  = 24 * 3600 // coordbotd's default -horizon
	replayBody     = 1000      // comments per replayed body
	replayPasses   = 5         // minimum passes (datasets) per run
	replayReads    = 1000      // closed-loop read probe after each pass

	// live: a 10-day horizon holds both planted campaigns well above the
	// cut (pair weights ~74 and ~43; at 24 h no LargeCampaign edge reaches
	// 25, at 7 days the larger one straddles it). 1000 comments/s in
	// 10-comment bodies against a 500 ms survey cadence makes each
	// cycle's delta ~500 comments, under 1% of the ~100k-comment window.
	liveHorizon  = 10 * 24 * 3600
	liveRate     = 1000 // comments/s
	liveBody     = 10
	liveReadRate = 200 // requests/s
	liveCadence  = 500 * time.Millisecond
	liveSetups   = 3 // set-ups per run; setup_s is their median

	prefillBody = 1000
	timeout     = 2 * time.Second // a request slower than this has failed
	archiveRuns = 9               // timed archive pipeline.Runs per run (batch_s)
)

// serve runs one request through h in process and returns its status.
func serve(h http.Handler, method, url, ctype string, data []byte) int {
	req := httptest.NewRequest(method, url, bytes.NewReader(data))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

func ok2xx(code int) bool { return code >= 200 && code < 300 }

// readProbe serves reads closed-loop and returns their latencies (µs).
func readProbe(res *Result, h http.Handler, reads []readQuery) []float64 {
	lat := make([]float64, 0, len(reads))
	for _, q := range reads {
		t0 := time.Now()
		code := serve(h, http.MethodGet, q.url, "", nil)
		d := time.Since(t0)
		res.Attempted++
		if !ok2xx(code) || d > timeout {
			res.Failed++
		}
		lat = append(lat, float64(d)/1e3)
	}
	return lat
}

// replayInput is one replay dataset, encoded.
type replayInput struct {
	c              *corpus
	prefill, timed []body
	reads          []readQuery
}

func newReplayInput(seed int64) *replayInput {
	c := replayCorpus(seed)
	enc := newBodyEncoder(c)
	split := c.firstAtOrAfter(c.comments[0].TS + replayHorizon)
	return &replayInput{
		c:       c,
		prefill: enc.encode(0, split, prefillBody),
		timed:   enc.encode(split, len(c.comments), replayBody),
		reads:   readMix(c, rand.New(rand.NewSource(seed)), replayReads),
	}
}

// runReplay: closed-loop archive replay through Service.IngestBytes. Each
// pass generates a fresh dataset from the run's seed, builds a fresh
// service, prefills one horizon (set-up), replays the rest as fast as it
// is accepted, surveys once, probes reads and checks the result. Every
// metric, percentiles included, is taken per pass and reported as the
// median over passes: a 24 h window is small enough that its content
// varies a lot from one dataset to the next, and a pass that a busy host
// slows down moves the median less than a pooled percentile.
func runReplay(o options) (*Result, error) {
	res := newResult()
	var setups, cps, cycles, heaps, archive []float64
	var detect50, detect99, read50, read99 []float64 // per-pass percentiles
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for pass := 0; pass < replayPasses || time.Now().Before(deadline); pass++ {
		in := newReplayInput(o.seed*1000 + int64(pass))
		c := in.c
		base := heapBytes()
		t0 := time.Now()
		svc, err := detectd.NewService(daemonConfig(replayHorizon))
		if err != nil {
			return nil, err
		}
		for _, b := range in.prefill {
			ingestBody(res, svc, b)
		}
		setups = append(setups, elapsed(t0))

		sent := make([]time.Time, len(in.timed))
		t1 := time.Now()
		n := 0
		for i, b := range in.timed {
			sent[i] = time.Now()
			n += ingestBody(res, svc, b)
		}
		cps = append(cps, float64(n)/elapsed(t1))

		// Start the survey on a fresh GC cycle, so a collection of the
		// ingest phase's garbage does not land in it.
		runtime.GC()
		t2 := time.Now()
		sr, err := svc.SurveyNow()
		done := time.Now()
		res.Attempted++
		if err != nil {
			res.Failed++
		} else if sr.Watermark < in.timed[len(in.timed)-1].lastTS {
			res.fail("replay: final survey watermark %d behind the stream", sr.Watermark)
		}
		cycles = append(cycles, float64(done.Sub(t2))/1e6)
		detects := make([]float64, len(sent))
		for i, s := range sent {
			detects[i] = float64(done.Sub(s)) / 1e6
		}
		detect50 = append(detect50, quantile(detects, 0.5))
		detect99 = append(detect99, quantile(detects, 0.99))
		heaps = append(heaps, heapMB(base))
		readLat := readProbe(res, svc.Handler(), in.reads)
		read50 = append(read50, quantile(readLat, 0.5))
		read99 = append(read99, quantile(readLat, 0.99))

		view, err := viewDaemon(svc)
		if err != nil {
			return nil, err
		}
		// svc is unreachable from here on: the checks run without its heap.
		if err := checkDaemon(res, view, c, c.comments, replayHorizon); err != nil {
			return nil, err
		}
		if pass < archiveRuns {
			t, err := archiveRun(c)
			if err != nil {
				return nil, err
			}
			archive = append(archive, t)
		}
		fmt.Printf("replay pass %d: %d comments over %d days, set-up %.3f s, %.0f comments/s, heap %.1f MB, final survey %.2f ms; interned %d authors + %d pages of %d authors ever seen\n",
			pass, len(c.comments), (c.comments[len(c.comments)-1].TS-c.comments[0].TS)/86400,
			setups[pass], cps[pass], heaps[pass], cycles[pass], view.authors.Len(), view.pages.Len(), len(c.authors))
	}
	res.set("setup_s", "s", median(setups))
	res.set("ingest_cps", "1/s", median(cps))
	res.set("heap_mb", "MB", median(heaps))
	res.set("detect_p50_ms", "ms", median(detect50))
	res.set("detect_p99_ms", "ms", median(detect99))
	res.set("cycle_p50_ms", "ms", median(cycles))
	res.set("read_p50_us", "us", median(read50))
	res.set("read_p99_us", "us", median(read99))
	res.set("batch_s", "s", median(archive))
	return res, nil
}

// ingestBody applies one body through the embedding path, counting it.
func ingestBody(res *Result, svc *detectd.Service, b body) int {
	res.Attempted++
	n, err := svc.IngestBytes(b.ctype, b.data)
	if err != nil || n != b.n {
		res.Failed++
	}
	return n
}

// liveSession is one daemon under the live workload's traffic.
type liveSession struct {
	c       *corpus
	svc     *detectd.Service
	h       http.Handler
	prefill []body
	stream  []body // open-loop ingest bodies, consumed in order
	next    int    // first unsent stream body
	reads   []readQuery
	// fed lists the comments the daemon accepted, in order — the input of
	// the cold-run check.
	fed []graph.Comment
}

func newLiveSession(seed int64, seconds int) *liveSession {
	c := liveCorpus(seed)
	enc := newBodyEncoder(c)
	split := c.firstAtOrAfter(c.comments[0].TS + liveHorizon)
	// Enough stream for the open loop at twice the run length, plus the
	// traced suite's lockstep cycles.
	hi := min(len(c.comments), split+liveRate*(2*seconds+20))
	s := &liveSession{
		c:       c,
		prefill: enc.encode(0, split, prefillBody),
		stream:  enc.encode(split, hi, liveBody),
		reads:   readMix(c, rand.New(rand.NewSource(seed)), liveReadRate*seconds*2),
	}
	fmt.Printf("live: %d comments over %d days (%d authors), prefill %d comments, horizon %d s, %d comments/s in %d-comment bodies, %d reads/s, survey every %v\n",
		len(c.comments), (c.comments[len(c.comments)-1].TS-c.comments[0].TS)/86400, len(c.authors),
		split, liveHorizon, liveRate, liveBody, liveReadRate, liveCadence)
	return s
}

// setup starts a fresh daemon, prefills one horizon and runs the first
// full survey; it returns the set-up time.
func (s *liveSession) setup(res *Result) (float64, error) {
	s.close()
	runtime.GC()
	t0 := time.Now()
	svc, err := detectd.NewService(daemonConfig(liveHorizon))
	if err != nil {
		return 0, err
	}
	svc.Start()
	s.svc, s.h, s.fed = svc, svc.Handler(), nil
	for _, b := range s.prefill {
		ingestBody(res, svc, b)
		s.fed = append(s.fed, s.c.comments[b.first:b.first+b.n]...)
	}
	res.Attempted++
	if _, err := svc.SurveyNow(); err != nil {
		res.Failed++
	}
	return elapsed(t0), nil
}

// close stops the session's daemon, if one runs.
func (s *liveSession) close() {
	if s.svc != nil {
		s.svc.Close()
		s.svc = nil
	}
}

// cycle is one SurveyNow as the open loop saw it.
type cycle struct {
	start, end time.Time
	watermark  int64
	triangles  int
	comms      int
	err        error
}

// loopStats is what an open-loop phase measured.
type loopStats struct {
	start, stop time.Time
	sentAt      []time.Time // due time of each sent body
	sentBody    []int       // stream index of each sent body
	accepted    []bool
	comments    int       // accepted comments
	readLat     []float64 // µs from due time
	readDue     []time.Time
	late        []float64 // ms the generator ran behind schedule
	cycles      []cycle
}

// openLoop drives the daemon for dur: one goroutine posts stream bodies
// through POST /v1/ingest at liveRate, one sends the read mix at
// liveReadRate, one calls SurveyNow every liveCadence (an overrun starts
// the next cycle at once). Requests are timed from when they were due.
// logs, when non-nil, receive a span around every handler call and
// survey, one log per goroutine.
func (s *liveSession) openLoop(res *Result, dur time.Duration, logs *[3]*spanLog) *loopStats {
	st := &loopStats{start: time.Now().Add(10 * time.Millisecond)}
	st.stop = st.start.Add(dur)
	var ingestLog, readLog, surveyLog *spanLog
	if logs != nil {
		ingestLog, readLog, surveyLog = logs[0], logs[1], logs[2]
	}
	var mu sync.Mutex // guards res counters and st.late
	count := func(failed bool) {
		mu.Lock()
		res.Attempted++
		if failed {
			res.Failed++
		}
		mu.Unlock()
	}
	lateBy := func(due time.Time) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		mu.Lock()
		st.late = append(st.late, float64(time.Since(due))/1e6)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		every := time.Duration(float64(time.Second) * liveBody / liveRate)
		for k := 0; s.next < len(s.stream); k++ {
			due := st.start.Add(time.Duration(k) * every)
			if !due.Before(st.stop) {
				return
			}
			lateBy(due)
			b := s.stream[s.next]
			id := ingestLog.begin("detectd.http_ingest", int64(s.next))
			code := serve(s.h, http.MethodPost, "/v1/ingest", b.ctype, b.data)
			ingestLog.end(id)
			d := time.Since(due)
			accepted := code == http.StatusAccepted
			count(!accepted || d > timeout)
			st.sentAt = append(st.sentAt, due)
			st.sentBody = append(st.sentBody, s.next)
			st.accepted = append(st.accepted, accepted)
			if accepted {
				st.comments += b.n
				s.fed = append(s.fed, s.c.comments[b.first:b.first+b.n]...)
			}
			s.next++
		}
	}()
	go func() {
		defer wg.Done()
		every := time.Second / liveReadRate
		for k := 0; k < len(s.reads); k++ {
			due := st.start.Add(time.Duration(k) * every)
			if !due.Before(st.stop) {
				return
			}
			lateBy(due)
			q := s.reads[k]
			id := readLog.begin("detectd."+q.kind, int64(k))
			code := serve(s.h, http.MethodGet, q.url, "", nil)
			readLog.end(id)
			d := time.Since(due)
			count(!ok2xx(code) || d > timeout)
			st.readLat = append(st.readLat, float64(d)/1e3)
			st.readDue = append(st.readDue, due)
		}
	}()
	go func() {
		defer wg.Done()
		next := st.start.Add(liveCadence)
		for k := int64(0); next.Before(st.stop); k++ {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			st.cycles = append(st.cycles, s.survey(res, surveyLog, k, &mu))
			next = next.Add(liveCadence)
			if now := time.Now(); next.Before(now) {
				next = now
			}
		}
	}()
	wg.Wait()
	return st
}

// survey runs one SurveyNow and records it.
func (s *liveSession) survey(res *Result, l *spanLog, req int64, mu *sync.Mutex) cycle {
	cy := cycle{start: time.Now()}
	id := l.begin("detectd.survey_now", req)
	sr, err := s.svc.SurveyNow()
	l.end(id)
	cy.end = time.Now()
	mu.Lock()
	res.Attempted++
	if err != nil {
		res.Failed++
	}
	mu.Unlock()
	if err != nil {
		cy.err = err
		return cy
	}
	cy.watermark, cy.triangles, cy.comms = sr.Watermark, len(sr.Result.Triangles), sr.Communities
	return cy
}

// quiesce waits until the ingest queue has applied every accepted body.
func (s *liveSession) quiesce(want int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for s.svc.Ingested() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest queue did not drain: %d of %d applied", s.svc.Ingested(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// readQuantile is the median over the loop's 1 s windows of each
// window's q-quantile read latency: a host stall that lands in one window
// moves it less than a quantile pooled over the whole run.
func (st *loopStats) readQuantile(q float64) float64 {
	const window = time.Second
	byWindow := map[int][]float64{}
	for i, due := range st.readDue {
		w := int(due.Sub(st.start) / window)
		byWindow[w] = append(byWindow[w], st.readLat[i])
	}
	var per []float64
	for _, lat := range byWindow {
		per = append(per, quantile(lat, q))
	}
	return median(per)
}

// detectDelays maps each accepted body to the return of the first survey
// whose watermark covers the body's last event, timed from its due time.
func detectDelays(s *liveSession, st *loopStats) []float64 {
	var out []float64
	ci := 0
	for j, due := range st.sentAt {
		if !st.accepted[j] {
			continue
		}
		last := s.stream[st.sentBody[j]].lastTS
		for ci < len(st.cycles) && (st.cycles[ci].err != nil || st.cycles[ci].watermark < last || st.cycles[ci].end.Before(due)) {
			ci++
		}
		if ci == len(st.cycles) {
			break
		}
		out = append(out, float64(st.cycles[ci].end.Sub(due))/1e6)
	}
	return out
}

// runLive: the open-loop daemon workload.
func runLive(o options) (*Result, error) {
	res := newResult()
	s := newLiveSession(o.seed, o.seconds)
	// Half the timed archive runs go before the session and half after
	// it, so that batch_s samples the host across the whole run and not
	// over the few seconds at its end.
	var archive []float64
	timeArchive := func(n int) error {
		for i := 0; i < n; i++ {
			t, err := archiveRun(s.c)
			if err != nil {
				return err
			}
			archive = append(archive, t)
		}
		return nil
	}
	if err := timeArchive(archiveRuns / 2); err != nil {
		return nil, err
	}
	base := heapBytes()
	var setups []float64
	for i := 0; i < liveSetups; i++ {
		t, err := s.setup(res)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	defer s.close()
	prefilled := s.svc.Ingested()

	st := s.openLoop(res, time.Duration(o.seconds)*time.Second, nil)
	heap := heapMB(base)
	if err := s.quiesce(prefilled + int64(st.comments)); err != nil {
		return nil, err
	}
	// Comments applied per second: from the first due send until the
	// queue has applied the last accepted body.
	cps := float64(st.comments) / time.Since(st.start).Seconds()
	var mu sync.Mutex
	final := s.survey(res, nil, -1, &mu)
	cycleMS := make([]float64, 0, len(st.cycles))
	for i, cy := range st.cycles {
		cycleMS = append(cycleMS, float64(cy.end.Sub(cy.start))/1e6)
		if cy.err == nil && (cy.triangles == 0 || cy.comms == 0) {
			res.fail("live: cycle %d published %d triangles, %d communities", i+1, cy.triangles, cy.comms)
		}
	}
	st.cycles = append(st.cycles, final)
	detects := detectDelays(s, st)
	if len(detects) == 0 {
		res.fail("live: no body was detected")
	}
	view, err := viewDaemon(s.svc)
	if err != nil {
		return nil, err
	}
	s.close() // the checks run without the daemon's heap
	if err := checkDaemon(res, view, s.c, s.fed, liveHorizon); err != nil {
		return nil, err
	}
	if err := timeArchive(archiveRuns - archiveRuns/2); err != nil {
		return nil, err
	}
	fmt.Printf("live: %d bodies sent (%d comments accepted), %d reads, %d cycles (+1 final); generator late p99 %.3f ms\n",
		len(st.sentAt), st.comments, len(st.readLat), len(st.cycles)-1, quantile(st.late, 0.99))
	res.set("setup_s", "s", median(setups))
	res.set("ingest_cps", "1/s", cps)
	res.set("heap_mb", "MB", heap)
	res.set("detect_p50_ms", "ms", quantile(detects, 0.5))
	res.set("detect_p99_ms", "ms", quantile(detects, 0.99))
	res.set("cycle_p50_ms", "ms", median(cycleMS))
	res.set("read_p50_us", "us", st.readQuantile(0.5))
	res.set("read_p99_us", "us", st.readQuantile(0.99))
	res.set("batch_s", "s", median(archive))
	return res, nil
}
