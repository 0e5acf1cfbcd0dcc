package main

import (
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// refVerdict is what the reference says about one flow.
type refVerdict uint8

const (
	refAllow refVerdict = iota + 1
	refDrop
	// refHashed: the first matching rule is probabilistic, so the verdict
	// depends on the enclave secret and the reference can only bound it.
	refHashed
)

// refMatcher is the benchmark's own first-match-wins matcher, written
// against rules.Rule.Matches only: no trie, no compiled classifier. It is
// a linear scan in rule order, cut down to the rules that can match by
// bucketing them on the top 16 bits of their source prefix (rules with a
// shorter source prefix sit in every scan), so that 100k-rule sets can be
// checked in the time budget. TestRefMatchesLinearScan holds it equal to
// rules.Set.Match.
type refMatcher struct {
	set     *rules.Set
	wide    []int32            // rule indices with Src.Len < 16, ascending
	buckets map[uint16][]int32 // Src.Addr>>16 -> rule indices, ascending
}

func newRefMatcher(set *rules.Set) *refMatcher {
	m := &refMatcher{set: set, buckets: make(map[uint16][]int32)}
	for i, r := range set.Rules {
		if r.Src.Len < 16 {
			m.wide = append(m.wide, int32(i))
			continue
		}
		k := uint16(r.Src.Addr >> 16)
		m.buckets[k] = append(m.buckets[k], int32(i))
	}
	return m
}

func (m *refMatcher) firstIn(idx []int32, t packet.FiveTuple) int32 {
	for _, i := range idx {
		if m.set.Rules[i].Matches(t) {
			return i
		}
	}
	return -1
}

// match returns the index of the first rule matching t, or -1.
func (m *refMatcher) match(t packet.FiveTuple) int32 {
	a := m.firstIn(m.wide, t)
	b := m.firstIn(m.buckets[uint16(t.SrcIP>>16)], t)
	if a < 0 || (b >= 0 && b < a) {
		return b
	}
	return a
}

func (m *refMatcher) verdict(t packet.FiveTuple) refVerdict {
	i := m.match(t)
	switch {
	case i < 0 && m.set.DefaultAllow:
		return refAllow
	case i < 0:
		return refDrop
	case m.set.Rules[i].PAllow >= 1:
		return refAllow
	case m.set.Rules[i].PAllow <= 0:
		return refDrop
	default:
		return refHashed
	}
}
