package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// percentile returns the p-quantile (0..1) of vs by linear interpolation
// between closest ranks; vs need not be sorted and is not modified. An
// empty input yields 0.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// windowMedian is how every timed figure is reduced: f gives window i's
// value (ok=false skips a window with nothing in it) and the figure is the
// median over windows. On a shared 2-vCPU host the windows of one run agree
// within a few percent while whole-run means are wrecked by the first cold
// second and by multi-millisecond hypervisor gaps.
func windowMedian(n int, f func(i int) (v float64, ok bool)) float64 {
	vs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if v, ok := f(i); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// span is one timed call into a layer. Spans of one burst share burst;
// parent is the index of the enclosing span in the recorder, -1 for none.
type span struct {
	start, end    int64 // ns since the run's time origin
	parent, burst int32
	layer         layer
}

// layer names a span. The strings are the per-layer metric stems.
type layer uint8

const (
	layerBurst layer = iota // one replayed burst, parent of the stages below
	layerHash
	layerEnqueue
	layerDequeue
	layerClassify
	layerApply
	layerCharge
	layerSink
	layerChain
	layerClassifyBatch
	layerAddMany
	layerInject
	numLayers
)

var layerNames = [numLayers]string{
	"replay.burst", "packet.hash", "pipeline.enqueue", "pipeline.dequeue",
	"filter.classify_burst", "filter.apply_burst", "filter.charge_burst",
	"engine.sink", "module.chain", "classify.batch", "sketch.addmany",
	"engine.inject",
}

// recorder keeps spans in a slice allocated before the clock starts, so
// recording is two clock reads and one store. Once full it counts what it
// drops instead of growing.
type recorder struct {
	spans   []span
	limit   int // spans kept at most; lowered below cap to ration a phase
	dropped int
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity), limit: capacity}
}

// open starts a span and returns its index (-1 when the recorder is
// full); close stamps its end. Siblings must be opened in start order,
// which selfTimes relies on.
func (r *recorder) open(l layer, parent, burst int32, now int64) int32 {
	if len(r.spans) >= r.limit {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{start: now, parent: parent, burst: burst, layer: l})
	return int32(len(r.spans) - 1)
}

func (r *recorder) close(i int32, now int64) {
	if i >= 0 {
		r.spans[i].end = now
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping siblings are counted once. spans may be a tail of
// the recorder's slice: base is the recorder index of spans[0], which
// parent indices are relative to.
func selfTimes(spans []span, base int32) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // per parent: end of coverage so far
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
		covered[i] = spans[i].start
	}
	for _, s := range spans {
		p := s.parent - base
		if s.parent < 0 {
			continue
		}
		lo, hi := max(s.start, covered[p]), min(s.end, spans[p].end)
		if hi > lo {
			self[p] -= hi - lo
			covered[p] = hi
		}
	}
	return self
}

// layerTotals sums self time per layer, in ns.
func layerTotals(spans []span, base int32) [numLayers]int64 {
	var out [numLayers]int64
	for i, self := range selfTimes(spans, base) {
		out[spans[i].layer] += self
	}
	return out
}

// writeSpans writes one JSON object per span, in recording order.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"burst_id":%d}`+"\n",
			layerNames[s.layer], s.start, s.end, s.parent, s.burst)
	}
	return bw.Flush()
}
