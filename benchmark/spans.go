package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of one request. Spans of a request share its
// key; Parent is the id of the enclosing span, 0 for the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names. The stage spans are children of the client call; the stage
// metrics are their median durations.
const (
	spanRequest   = "request"             // scheduled arrival → accepted reply
	spanFailed    = "request.failed"      // scheduled arrival → timeout
	spanCall      = "client.call"         // dispatch → Submit or Read returns
	spanIngress   = "network.ingress"     // client send → target replica inbox
	spanBatch     = "protocol.batch"      // proposer inbox → PROPOSE carrying it
	spanOrder     = "poe.order"           // PROPOSE → nf-th INFORM sent
	spanReadServe = "protocol.read_serve" // serving replica inbox → READREPLY sent
	spanReply     = "client.reply"        // nf-th INFORM or READREPLY sent → return
)

// buildSpans turns the measured requests' outcomes and their transport
// traces into spans, timed in nanoseconds since base.
func buildSpans(res *loadResult, traces map[reqKey]*reqTrace, base time.Time) []span {
	var out []span
	add := func(name, key string, from, to time.Time, parent int) int {
		if from.IsZero() || to.IsZero() || to.Before(from) {
			return 0
		}
		id := len(out) + 1
		out = append(out, span{ID: id, Parent: parent, Name: name, Key: key,
			Start: int64(from.Sub(base)), End: int64(to.Sub(base))})
		return id
	}
	for _, o := range res.outcomes {
		if !o.measured || o.shed {
			continue
		}
		space := "w"
		if o.read {
			space = "r"
		}
		key := fmt.Sprintf("c%d/%s%d", o.client, space, o.seq)
		if !o.completed() {
			add(spanFailed, key, o.arrival, o.arrival.Add(requestTimeout), 0)
			continue
		}
		root := add(spanRequest, key, o.arrival, o.done, 0)
		call := add(spanCall, key, o.dispatch, o.done, root)
		rt := traces[reqKey{o.client, o.seq, o.read}]
		if rt == nil {
			continue
		}
		if rt.target.IsReplica() && int(rt.target) < clusterN {
			add(spanIngress, key, rt.firstSend, rt.arrive[rt.target], call)
		}
		if !rt.served.IsZero() {
			add(spanReadServe, key, rt.arrive[rt.server], rt.served, call)
			add(spanReply, key, rt.served, o.done, call)
			continue
		}
		if !rt.propose.IsZero() {
			add(spanBatch, key, rt.arrive[rt.proposer], rt.propose, call)
		}
		add(spanOrder, key, rt.propose, rt.quorum, call)
		add(spanReply, key, rt.quorum, o.done, call)
	}
	return out
}

// stageStats is one span name's duration and self-time summary.
type stageStats struct {
	name    string
	count   int
	p50Ms   float64
	selfMs  float64 // mean self time
	totalMs float64 // mean duration
}

// summarizeSpans computes, per span name, the median duration and the mean
// self time: a span's duration minus the part of it its children cover.
func summarizeSpans(spans []span) []stageStats {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(s.dur()-covered(s, children[s.ID]))/1e6)
	}
	var out []stageStats
	for name, d := range durs {
		sort.Float64s(d)
		out = append(out, stageStats{name: name, count: len(d), p50Ms: percentile(d, 0.5),
			selfMs: mean(selfs[name]), totalMs: mean(d)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
