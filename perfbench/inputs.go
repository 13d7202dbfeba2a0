package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"coordbot/internal/graph"
	"coordbot/internal/redditgen"
	"coordbot/internal/wire"
)

// corpus is a generated comment stream plus the names the program under
// test sees. Comment Author/Page fields index the name tables (the
// benchmark's own ID space, never the program's); timestamps are
// nondecreasing.
type corpus struct {
	comments []graph.Comment
	authors  []string
	pages    []string
	// truth maps each planted campaign to its members, benign each
	// benign cohort; helpers are AutoModerator and [deleted].
	truth   map[string][]graph.VertexID
	benign  map[string][]graph.VertexID
	helpers map[graph.VertexID]bool
	// organic are the background (non-bot) authors, in order of first
	// appearance.
	organic []graph.VertexID
}

func newCorpus() *corpus {
	c := &corpus{
		truth:   map[string][]graph.VertexID{},
		benign:  map[string][]graph.VertexID{},
		helpers: map[graph.VertexID]bool{},
	}
	for _, h := range []string{helperAuthor, helperDelete} {
		c.helpers[graph.VertexID(len(c.authors))] = true
		c.authors = append(c.authors, h)
	}
	return c
}

// appendSegment adds one generated dataset to the stream, shifted forward
// by shift seconds. prefix renames every author and page so that each
// segment brings a fresh population (the helpers stay shared).
//
// It leaves out the comments at end-1, where end is the dataset's
// generator End: the generator clamps every organic comment that would
// fall after End onto that one second, so pages created late in the span
// pile hundreds of authors into a single co-comment clique. The pile held
// 800-2800 comments depending on the seed and swung the projected graph
// by 75% (44k-77k edges) and pipeline.Run's time with it.
func (c *corpus) appendSegment(ds *redditgen.Dataset, prefix string, shift, end int64) {
	authorOf := make([]graph.VertexID, ds.Authors.Len())
	for a := range authorOf {
		name := ds.Authors.Name(graph.VertexID(a))
		if ds.Helpers[graph.VertexID(a)] {
			for id := range c.helpers {
				if c.authors[id] == name {
					authorOf[a] = id
				}
			}
			continue
		}
		authorOf[a] = graph.VertexID(len(c.authors))
		c.authors = append(c.authors, prefix+name)
	}
	pageBase := graph.VertexID(len(c.pages))
	for p := 0; p < ds.NumPages; p++ {
		c.pages = append(c.pages, prefix+"t3_"+strconv.Itoa(p))
	}
	for _, cm := range ds.Comments {
		if cm.TS >= end-1 {
			continue
		}
		c.comments = append(c.comments, graph.Comment{
			Author: authorOf[cm.Author], Page: pageBase + cm.Page, TS: cm.TS + shift,
		})
	}
	remap := func(dst map[string][]graph.VertexID, src map[string][]graph.VertexID) {
		for name, ids := range src {
			out := make([]graph.VertexID, len(ids))
			for i, id := range ids {
				out[i] = authorOf[id]
			}
			dst[prefix+name] = out
		}
	}
	remap(c.truth, ds.Truth)
	remap(c.benign, ds.Benign)
}

// Workload inputs. Every generator config takes its seed from --seed.

// communities splits each epoch's organic background into this many
// independent communities with disjoint users and pages. A single
// Zipf-popular community concentrates ~15% of its comments on one page,
// so whether that page falls inside a 7-day window swings its graph
// 17-fold (11k-193k edges) from seed to seed; sixteen communities each
// bring their own popular pages, and a window holds a steady mix.
const communities = 16

// appendEpoch appends one 14-day LargeCampaign(scale)-shaped epoch,
// shifted forward by shift seconds: the preset's first `campaigns`
// planted campaigns and its benign cohort, plus its organic volume spread
// over the communities. prefix names the epoch's population. It returns
// the epoch's end.
func (c *corpus) appendEpoch(seed int64, scale float64, campaigns int, prefix string, shift int64) int64 {
	base := redditgen.LargeCampaign(scale)
	planted := base
	planted.Seed = seed * (communities + 1)
	planted.Organic = redditgen.OrganicConfig{}
	planted.Botnets = planted.Botnets[:campaigns]
	c.appendSegment(redditgen.Generate(planted), prefix, shift, base.End)
	for i := int64(0); i < communities; i++ {
		o := base
		o.Seed = planted.Seed + i + 1
		o.Botnets, o.Cohorts = nil, nil
		o.Organic.Authors /= communities
		o.Organic.Pages /= communities
		o.Organic.Comments /= communities
		c.appendSegment(redditgen.Generate(o), fmt.Sprintf("%sc%d.", prefix, i), shift, base.End)
	}
	return base.End + shift
}

// sortUntil orders the merged stream by time and ends it at end, where
// the last epoch's page creation stops.
func (c *corpus) sortUntil(end int64) {
	sort.SliceStable(c.comments, func(i, j int) bool { return c.comments[i].TS < c.comments[j].TS })
	c.comments = c.comments[:c.firstAtOrAfter(end)]
	skip := map[graph.VertexID]bool{}
	for id := range c.helpers {
		skip[id] = true
	}
	for _, members := range c.truth {
		for _, m := range members {
			skip[m] = true
		}
	}
	for _, cm := range c.comments {
		if !skip[cm.Author] {
			skip[cm.Author] = true
			c.organic = append(c.organic, cm.Author)
		}
	}
}

// replayCorpus is four back-to-back epochs (the two smaller planted
// campaigns each) with disjoint author and page populations: 56 days, 56
// default horizons.
func replayCorpus(seed int64) *corpus {
	c := newCorpus()
	var end int64
	for k := int64(0); k < replaySegments; k++ {
		end = c.appendEpoch(seed*replaySegments+k, 1, 2, fmt.Sprintf("g%d.", k), k*14*86400)
	}
	c.sortUntil(end)
	return c
}

// liveCorpus is one epoch with the two smaller planted campaigns. Over
// the 10-day live horizon the two larger ones have pair weights (~33 and
// ~28) that straddle the cut, so the census would swing by tens of
// thousands of triangles from seed to seed; the kept ones sit at ~74 and
// ~43, and every seed's census is their 35k triangles.
func liveCorpus(seed int64) *corpus {
	c := newCorpus()
	c.sortUntil(c.appendEpoch(seed, 1, 2, "", 0))
	return c
}

// batchCorpus is a LargeCampaign(0.4)-shaped epoch without the 200-bot
// campaign: that campaign alone contributes 1.3M of 1.6M triangles and
// ~8 s to one run on a 2-core box, which would leave a single sample per
// run.
func batchCorpus(seed int64) *corpus {
	c := newCorpus()
	c.sortUntil(c.appendEpoch(seed, 0.4, 3, "", 0))
	return c
}

// body is one pre-encoded ingest request.
type body struct {
	ctype  string
	data   []byte
	n      int   // comments
	first  int   // index of the first comment in the corpus stream
	lastTS int64 // event time of the last comment
}

// bodyEncoder builds request bodies, alternating JSON arrays and binary
// CBF1 frames body by body.
type bodyEncoder struct {
	c       *corpus
	authorQ [][]byte // JSON-quoted names, built once
	pageQ   [][]byte
	frame   *wire.Encoder
	next    int // alternation counter
}

func newBodyEncoder(c *corpus) *bodyEncoder {
	quote := func(names []string) [][]byte {
		out := make([][]byte, len(names))
		for i, n := range names {
			out[i], _ = json.Marshal(n) // a string always marshals
		}
		return out
	}
	return &bodyEncoder{c: c, authorQ: quote(c.authors), pageQ: quote(c.pages), frame: wire.NewEncoder()}
}

// encode splits comments [lo, hi) into bodies of at most per comments.
func (e *bodyEncoder) encode(lo, hi, per int) []body {
	var out []body
	for i := lo; i < hi; i += per {
		j := min(i+per, hi)
		cs := e.c.comments[i:j]
		b := body{n: j - i, first: i, lastTS: cs[len(cs)-1].TS}
		if e.next%2 == 0 {
			b.ctype = "application/json"
			buf := make([]byte, 0, 64*len(cs))
			buf = append(buf, '[')
			for k, cm := range cs {
				if k > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, `{"author":`...)
				buf = append(buf, e.authorQ[cm.Author]...)
				buf = append(buf, `,"page":`...)
				buf = append(buf, e.pageQ[cm.Page]...)
				buf = append(buf, `,"ts":`...)
				buf = strconv.AppendInt(buf, cm.TS, 10)
				buf = append(buf, '}')
			}
			b.data = append(buf, ']')
		} else {
			b.ctype = wire.ContentTypeFrame
			e.frame.Reset()
			for _, cm := range cs {
				e.frame.Add(e.c.authors[cm.Author], e.c.pages[cm.Page], cm.TS)
			}
			b.data = append([]byte(nil), e.frame.Bytes()...)
		}
		e.next++
		out = append(out, b)
	}
	return out
}

// firstAtOrAfter returns the index of the first comment with TS >= ts.
func (c *corpus) firstAtOrAfter(ts int64) int {
	return sort.Search(len(c.comments), func(i int) bool { return c.comments[i].TS >= ts })
}

// readQuery is one pre-generated read of the live mix.
type readQuery struct {
	kind string // "score", "triangles" or "communities"
	url  string
}

// readMix draws n reads: 90% /v1/score triples (50% planted, 40%
// organic), 5% /v1/triangles?limit=100, 5% /v1/communities?limit=20. The
// shares are exact in every block of 20 reads, shuffled within the block.
// Organic scores and community reads are the fast kinds; were they half
// the mix, as with an even planted/organic split, the median read would
// sit in the gap between the fast and the slow half: on batch, on a
// 2-core VM, it then spread 2.6 times as much as batch_s across seeds.
func readMix(c *corpus, rng *rand.Rand, n int) []readQuery {
	var campaigns []string
	for name := range c.truth {
		campaigns = append(campaigns, name)
	}
	sort.Strings(campaigns)
	triple := func(pool []graph.VertexID) string {
		p := rng.Perm(len(pool))[:3]
		return "/v1/score?users=" + c.authors[pool[p[0]]] + "," + c.authors[pool[p[1]]] + "," + c.authors[pool[p[2]]]
	}
	const block = 20
	out := make([]readQuery, n)
	for lo := 0; lo < n; lo += block {
		for j, slot := range rng.Perm(block) {
			i := lo + j
			if i >= n {
				break
			}
			switch {
			case slot == 0:
				out[i] = readQuery{"triangles", "/v1/triangles?limit=100"}
			case slot == 1:
				out[i] = readQuery{"communities", "/v1/communities?limit=20"}
			case slot < 12:
				out[i] = readQuery{"score", triple(c.truth[campaigns[rng.Intn(len(campaigns))]])}
			default:
				// Organic triples come from the tenth of the background
				// population that appears first, so they are known early.
				out[i] = readQuery{"score", triple(c.organic[:max(3, len(c.organic)/10)])}
			}
		}
	}
	return out
}
