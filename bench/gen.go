package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"

	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// srcLens is the mix of source-prefix lengths rules are drawn with: mostly
// /24 (the repo's historical shape) with some shorter and longer ones so
// the classifier's interval tables are not all one width.
var srcLens = []uint8{22, 24, 24, 24, 26, 28}

// victimPrefix is victim v's /24 inside 198.18.0.0/15, the range RFC 2544
// sets aside for benchmarking.
func victimPrefix(v int) rules.Prefix {
	return rules.Prefix{Addr: 198<<24 | 18<<16 | uint32(v)<<8, Len: 24}
}

func genRule(rng *rand.Rand, v int, pAllow float64, id uint32) rules.Rule {
	return rules.Rule{
		ID:     id,
		Src:    rules.Prefix{Addr: rng.Uint32(), Len: srcLens[rng.Intn(len(srcLens))]}.Canonical(),
		Dst:    victimPrefix(v),
		Proto:  packet.ProtoUDP,
		PAllow: pAllow,
	}
}

// genRules draws victim v's rule set. Rule i gets ID i+1, so churn deltas
// can name their own IDs past the end.
func genRules(rng *rand.Rand, w *workload, v int) (*rules.Set, error) {
	rs := make([]rules.Rule, w.rulesPerVictim)
	for i := range rs {
		rs[i] = genRule(rng, v, w.pAllow, uint32(i+1))
	}
	return rules.NewSet(rs, true)
}

// churnCount is how many rules one update replaces. They are always the
// tail of the set, which the pool never draws traffic from, so verdicts
// stay what the check phase verified while rules churn.
func churnCount(n int) int {
	k := int(churnFrac * float64(n))
	if k < 1 {
		k = 1
	}
	return k
}

// churner issues one victim's stream of add+remove deltas: each removes
// the rules the previous one added (first: the base set's tail) and adds
// as many fresh ones, so the rule count never changes.
type churner struct {
	rng    *rand.Rand
	victim int
	pAllow float64
	nextID uint32
	tail   []rules.Rule
}

func newChurner(rng *rand.Rand, v int, set *rules.Set) *churner {
	k := churnCount(set.Len())
	return &churner{
		rng:    rng,
		victim: v,
		pAllow: set.Rules[0].PAllow,
		nextID: uint32(set.Len()) + 1,
		tail:   set.Rules[set.Len()-k:],
	}
}

func (c *churner) next() filter.Delta {
	adds := make([]rules.Rule, len(c.tail))
	for i := range adds {
		adds[i] = genRule(c.rng, c.victim, c.pAllow, c.nextID)
		c.nextID++
	}
	d := filter.Delta{Adds: adds, Removes: c.tail}
	c.tail = adds
	return d
}

// victimAt maps a pool position to the victim whose traffic sits there:
// namespace runs of w.nsRun packets, round-robin over victims.
func (w *workload) victimAt(i int) int {
	if w.victims == 1 {
		return 0
	}
	return (i / w.nsRun) % w.victims
}

// genPool draws the descriptor pool: trains of w.train identical 64-byte
// packets, a matchFrac share of flows placed inside a stable (non-churned)
// rule of their victim and the rest given a uniformly random source.
// NS is left 0; multi-victim setups stamp it through lb.VictimMap.
func genPool(rng *rand.Rand, w *workload, sets []*rules.Set) []packet.Descriptor {
	pool := make([]packet.Descriptor, w.poolSize)
	for i := 0; i < len(pool); i += w.train {
		v := w.victimAt(i)
		set := sets[v]
		src := rng.Uint32()
		if rng.Float64() < w.matchFrac {
			r := set.Rules[rng.Intn(set.Len()-churnCount(set.Len()))]
			src = r.Src.Addr | src&^r.Src.Mask()
		}
		d := packet.Descriptor{
			Tuple: packet.FiveTuple{
				SrcIP:   src,
				DstIP:   victimPrefix(v).Addr | 77,
				SrcPort: uint16(rng.Intn(60000) + 1),
				DstPort: 53,
				Proto:   packet.ProtoUDP,
			},
			Size: packet.MinFrameSize,
			Ref:  packet.NoRef,
		}
		for j := 0; j < w.train; j++ {
			pool[i+j] = d
		}
	}
	return pool
}

// poolDigest fingerprints the generated inputs so two runs can be shown
// to have measured the same packets.
func poolDigest(pool []packet.Descriptor) string {
	h := sha256.New()
	for i := range pool {
		k := pool[i].Tuple.Key()
		h.Write(k[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
