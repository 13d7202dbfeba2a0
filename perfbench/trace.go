package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer: the layer is the name's prefix up
// to the first dot. Parent indexes the enclosing span of the same log (-1
// for a root); spans of one request (an ingest body, a survey cycle, a
// batch run) share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// spanLog keeps spans in memory for one goroutine. A nil *spanLog records
// nothing, so untraced code paths pass nil.
type spanLog struct {
	origin time.Time
	spans  []span
	open   []int32
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

func (l *spanLog) begin(name string, req int64) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.origin).Nanoseconds(), Parent: parent, Req: req})
	l.open = append(l.open, id)
	return id
}

func (l *spanLog) end(id int32) {
	if l == nil {
		return
	}
	l.spans[id].End = time.Since(l.origin).Nanoseconds()
	l.open = l.open[:len(l.open)-1]
}

// around times fn as one span.
func (l *spanLog) around(name string, req int64, fn func()) {
	id := l.begin(name, req)
	fn()
	l.end(id)
}

// durs returns the durations (ns) of the spans named name, optionally
// restricted to requests accepted by keep.
func (l *spanLog) durs(name string, keep func(req int64) bool) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && (keep == nil || keep(s.Req)) {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// sumNS totals durs.
func sumNS(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// selfByLayer charges each span's self time — its duration minus the part
// its child spans cover — to its layer, over the spans of requests keep
// accepts. Children of one span never overlap (a log belongs to one
// goroutine), so the covered part is the sum of their durations.
func (l *spanLog) selfByLayer(keep func(req int64) bool) map[string]float64 {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range l.spans {
		if keep != nil && !keep(s.Req) {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End - s.Start - child[i])
	}
	return out
}

// printSelf prints a layer self-time table for one traced phase, against
// the phase's wall time; the remainder is time no root span covers.
func printSelf(title string, self map[string]float64, wallNS float64) (uncoveredFrac float64) {
	layers := make([]string, 0, len(self))
	covered := 0.0
	for k, v := range self {
		layers = append(layers, k)
		covered += v
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("self time by layer, %s (wall %.1f ms):\n", title, wallNS/1e6)
	for _, k := range layers {
		fmt.Printf("  %-12s %10.2f ms  %5.1f%%\n", k, self[k]/1e6, 100*self[k]/wallNS)
	}
	rest := wallNS - covered
	fmt.Printf("  %-12s %10.2f ms  %5.1f%%\n", "(uncovered)", rest/1e6, 100*rest/wallNS)
	return rest / wallNS
}

// writeSpans writes every log's spans as JSON lines under dir, one file
// per phase.
func writeSpans(dir string, logs map[string]*spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for phase, l := range logs {
		path := filepath.Join(dir, phase+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		enc := json.NewEncoder(w)
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("spans written to %s\n", dir)
	return nil
}
