package main

import (
	"fmt"
	"sort"

	"ruru/internal/analytics"
	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
	"ruru/internal/nic"
	"ruru/internal/pkt"
)

// pair is a (src_city, dst_city) series group.
type pair struct{ src, dst string }

// truthAgg is the oracle for one city pair over one lap: how many
// handshakes complete and the sum of their expected total RTT in ms.
type truthAgg struct {
	count int
	sumMs float64
}

// trace is one pre-rendered lap of generated traffic in compact form: every
// frame lives in a single byte arena, addressed by offsets, with its tap
// timestamp relative to the lap's first packet. Replaying lap L shifts all
// timestamps by L*span, so run length never depends on trace memory.
type trace struct {
	arena []byte
	off   []uint32 // frame i is arena[off[i]:off[i+1]]
	ts    []int64  // relative tap timestamps, non-decreasing

	// acks holds the packet index of every handshake-completing ACK in
	// lap order; ackTs their relative timestamps (sorted).
	acks  []int32
	ackTs []int64

	span   int64 // lap length: last timestamp plus a 1 ms gap
	truth  map[pair]truthAgg
	cities []string // every city name in the world, sorted

	// meas holds, in ACK order, the enriched measurement a correct
	// pipeline stores for each completing ACK (Time relative to the lap):
	// the sink warm-up replays it.
	meas []analytics.Enriched
}

func (t *trace) packets() int   { return len(t.ts) }
func (t *trace) completes() int { return len(t.acks) }

func (t *trace) frame(i int) []byte { return t.arena[t.off[i]:t.off[i+1]] }

// fill writes frames [i, j) of lap-shifted traffic into dst.
func (t *trace) fill(dst []nic.Frame, i, j int, shift int64) []nic.Frame {
	dst = dst[:0]
	for k := i; k < j; k++ {
		dst = append(dst, nic.Frame{Data: t.frame(k), TS: t.ts[k] + shift})
	}
	return dst
}

// ackOrdinal maps a measurement's ACK timestamp back to the global ordinal
// (lap*completes + index) of the ACK that produced it. Two ACKs with the
// same timestamp resolve to the first; both share a burst in practice.
func (t *trace) ackOrdinal(ackTime, base int64) (int, bool) {
	rel := ackTime - base
	if rel < 0 {
		return 0, false
	}
	lap := rel / t.span
	rel -= lap * t.span
	i := sort.Search(len(t.ackTs), func(k int) bool { return t.ackTs[k] >= rel })
	if i == len(t.ackTs) || t.ackTs[i] != rel {
		return 0, false
	}
	return int(lap)*len(t.acks) + i, true
}

// renderTrace runs the generator once, before any clock starts, and packs
// its output. It also derives the per-pair oracle from the generator's
// FlowTruth records and checks that every completing flow has exactly one
// completing ACK in the stream.
func renderTrace(cfg gen.Config, world *geo.World) (*trace, error) {
	g, err := gen.New(cfg)
	if err != nil {
		return nil, err
	}
	t := &trace{truth: make(map[pair]truthAgg)}
	var p gen.Packet
	var t0 int64
	for g.Next(&p) {
		if len(t.ts) == 0 {
			t0 = p.TS
		}
		t.off = append(t.off, uint32(len(t.arena)))
		t.arena = append(t.arena, p.Frame...)
		t.ts = append(t.ts, p.TS-t0)
		if p.Kind == gen.KindACK {
			t.acks = append(t.acks, int32(len(t.ts)-1))
			t.ackTs = append(t.ackTs, p.TS-t0)
		}
	}
	if len(t.ts) == 0 {
		return nil, fmt.Errorf("trace: generator produced no packets")
	}
	t.off = append(t.off, uint32(len(t.arena)))
	t.span = t.ts[len(t.ts)-1] + 1e6

	byKey := make(map[core.FlowKey]*gen.FlowTruth)
	completes := 0
	truths := g.Truths()
	for i := range truths {
		ft := &truths[i]
		if !ft.Completes {
			continue
		}
		byKey[ft.Key] = ft
		completes++
		k := pair{world.Cities[ft.ClientCity].Name, world.Cities[ft.ServerCity].Name}
		a := t.truth[k]
		a.count++
		a.sumMs += float64(ft.ExpectedInternal+ft.ExpectedExternal) / 1e6
		t.truth[k] = a
	}
	if completes != len(t.acks) {
		return nil, fmt.Errorf("trace: %d completing flows but %d completing ACKs", completes, len(t.acks))
	}
	for _, c := range world.Cities {
		t.cities = append(t.cities, c.Name)
	}
	var parser pkt.Parser
	var sum pkt.Summary
	for i, pi := range t.acks {
		if err := parser.Parse(t.frame(int(pi)), &sum); err != nil {
			return nil, fmt.Errorf("trace: completing ACK %d: %w", i, err)
		}
		ft := byKey[core.FlowKey{Client: sum.Src(), Server: sum.Dst(), ClientPort: sum.TCP.SrcPort, ServerPort: sum.TCP.DstPort}]
		if ft == nil {
			return nil, fmt.Errorf("trace: completing ACK %d matches no flow", i)
		}
		t.meas = append(t.meas, analytics.Enriched{
			Time: t.ackTs[i], InternalNs: ft.ExpectedInternal, ExternalNs: ft.ExpectedExternal,
			TotalNs: ft.ExpectedInternal + ft.ExpectedExternal,
			Src:     endpointOf(world, ft.Key.Client), Dst: endpointOf(world, ft.Key.Server),
		})
	}
	sort.Strings(t.cities)
	return t, nil
}
