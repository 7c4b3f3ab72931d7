package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coordcharge/internal/units"
)

// genID identifies a generator by its default-filled spec: every scalar
// field, with the SwingScale slice (unhashable) folded to a hash of its bit
// patterns. Generators with equal IDs produce identical frames, so the
// process-wide memos below key on it.
type genID struct {
	numRacks           int
	duration           time.Duration
	trough, peak       units.Power
	diurnal, peakTime  time.Duration
	noiseFrac, weekend float64
	seed               int64
	swingFP            uint64
}

func genIDOf(spec *Spec) genID {
	id := genID{
		numRacks:  spec.NumRacks,
		duration:  spec.Duration,
		trough:    spec.TroughPower,
		peak:      spec.PeakPower,
		diurnal:   spec.DiurnalPeriod,
		peakTime:  spec.PeakTime,
		noiseFrac: spec.NoiseFrac,
		weekend:   spec.WeekendLevel,
		seed:      spec.Seed,
	}
	if len(spec.SwingScale) != 0 {
		h := fnv.New64a()
		var b [8]byte
		for _, w := range spec.SwingScale {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
		id.swingFP = h.Sum64()
	}
	return id
}

// boundedMemo is a concurrency-safe memo whose stored cost never exceeds a
// fixed budget. Once the budget is spent, new results are computed and not
// stored. Two goroutines that miss on the same key may both compute it; the
// first store wins and the cost is counted once.
type boundedMemo struct {
	m      sync.Map
	used   atomic.Int64
	budget int64
}

func newMemoPointer(budget int64) *atomic.Pointer[boundedMemo] {
	p := new(atomic.Pointer[boundedMemo])
	p.Store(&boundedMemo{budget: budget})
	return p
}

// store records value() under key when cost still fits the budget. value
// is called only then, so a full memo costs no copy.
func (m *boundedMemo) store(key any, cost int64, value func() any) {
	if m.used.Add(cost) > m.budget {
		m.used.Add(-cost)
		return
	}
	if _, loaded := m.m.LoadOrStore(key, value()); loaded {
		m.used.Add(-cost)
	}
}

// frameMemoBudget bounds the frame memo's stored samples, in bytes: 16 MiB
// holds ~6.6k frames of the paper's 316-rack MSB, well above the ~2.1k
// distinct frames a full reproduction asks for.
const frameMemoBudget = 16 << 20

// frameKey identifies one memoised frame.
type frameKey struct {
	gen genID
	t   time.Duration
}

// frameMemo holds single frames (frameKey → []units.Power, never mutated
// once stored). Experiment arms that replay one trace under different
// limits, policies, or discharge depths ask for the same frames over and
// over; each is synthesized once per process.
var frameMemo = newMemoPointer(frameMemoBudget)

// Frame fills dst with the single frame at virtual time t — NumRacks
// samples, bit-identical to Frames(dst, t, t, step) — and returns it. dst is
// reused when its capacity suffices. Frames are memoised process-wide by
// generator identity and time, within a fixed byte budget; a hit copies the
// stored row into dst, so callers keep owning their buffers.
func (g *Generator) Frame(dst []units.Power, t time.Duration) []units.Power {
	key := frameKey{gen: g.id, t: t}
	memo := frameMemo.Load()
	if v, ok := memo.m.Load(key); ok {
		row := v.([]units.Power)
		dst = growFrames(dst, len(row))
		copy(dst, row)
		return dst
	}
	dst = g.Frames(dst, t, t, time.Second)
	const sampleBytes = 8 // one float64 wattage
	memo.store(key, int64(len(dst))*sampleBytes, func() any {
		return append([]units.Power(nil), dst...)
	})
	return dst
}

// ResetFrameMemo drops every memoised frame. Results never depend on the
// memo; benchmarks call this before each iteration so they keep measuring
// cold synthesis rather than cache hits.
func ResetFrameMemo() {
	frameMemo.Store(&boundedMemo{budget: frameMemoBudget})
}
