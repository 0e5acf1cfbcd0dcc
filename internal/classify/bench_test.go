package classify_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/innetworkfiltering/vif/internal/classify"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// BenchmarkClassifyBatchAnyDriver probes the shape the repository
// benchmark's rule sets never take: 100,000 source-specific rules followed
// by `tail` lowest-priority rules that leave the source unrestricted (one
// destination port each), so the driver attribute of every packet carries
// a sparse any-set over a 100,000-wide priority domain. tail=1 is a single
// catch-all (the any-set is a one-entry list), tail=100 is past sparseMax
// (the walk continues in the bitset through its summary level), tail=0 is
// the benchmark's own shape for reference. With src=rules every packet's
// source is drawn from a rule, which then wins before the any-rules are
// reached; with src=random nearly every source misses and the packet
// tests the any-rules one by one (all `tail` of them: its port matches
// the last). 2,048 bursts of 64 packets cycle through the program so the
// probes are not cache-resident.
func BenchmarkClassifyBatchAnyDriver(b *testing.B) {
	for _, tail := range []int{0, 1, 100} {
		for _, src := range []string{"rules", "random"} {
			b.Run(fmt.Sprintf("tail=%d/src=%s", tail, src), func(b *testing.B) {
				rs := benchShapeRules(100000 + tail)
				for i := range rs[100000:] {
					port := uint16(1000 + i)
					rs[100000+i].Src = rules.Prefix{}
					rs[100000+i].DstPort = rules.PortRange{Lo: port, Hi: port}
				}
				p := classify.Compile(rs, nil, int32(len(rs)-1))
				rng := rand.New(rand.NewSource(2))
				ts := make([]packet.FiveTuple, 64*2048)
				for i := range ts {
					ts[i] = packet.FiveTuple{
						SrcIP:   rng.Uint32(),
						DstIP:   198<<24 | 18<<16 | 7,
						SrcPort: uint16(rng.Intn(1 << 16)),
						DstPort: uint16(1000 + max(tail, 1) - 1),
						Proto:   packet.ProtoUDP,
					}
					if src == "rules" {
						ts[i].SrcIP = rs[rng.Intn(100000)].Src.Addr | uint32(rng.Intn(4))
					}
				}
				var sc classify.BatchScratch
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := i % 2048 * 64
					p.ClassifyBatch(ts[o:o+64], &sc)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/pkt")
			})
		}
	}
}
