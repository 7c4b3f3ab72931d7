package trace

import (
	"testing"
	"time"

	"coordcharge/internal/units"
)

func BenchmarkGeneratorRack(b *testing.B) {
	g, err := NewGenerator(Spec{NumRacks: 316, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Rack(i%316, time.Duration(i)*3*time.Second)
	}
}

// One simulation tick's worth of trace reads: the whole MSB population.
func BenchmarkAggregate316(b *testing.B) {
	g, err := NewGenerator(Spec{NumRacks: 316, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Aggregate(g, time.Duration(i)*3*time.Second)
	}
}

// BenchmarkTraceFrames contrasts the two ways of reading one hour of the
// 316-rack trace at the 3 s tick: per-call Rack versus the block Frames API
// (which hoists the per-tick swing/diurnal terms out of the rack loop).
func BenchmarkTraceFrames(b *testing.B) {
	g, err := NewGenerator(Spec{NumRacks: 316, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	const hour = time.Hour
	b.Run("per-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum float64
			for t := time.Duration(0); t <= hour; t += 3 * time.Second {
				for r := 0; r < 316; r++ {
					sum += float64(g.Rack(r, t))
				}
			}
			_ = sum
		}
	})
	b.Run("frames", func(b *testing.B) {
		var buf []units.Power
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sum float64
			buf = Frames(g, buf, 0, hour, 3*time.Second)
			for _, p := range buf {
				sum += float64(p)
			}
			_ = sum
		}
	})
}

func BenchmarkMaterializedRack(b *testing.B) {
	g, _ := NewGenerator(Spec{NumRacks: 32, Seed: 1})
	m, err := Materialize(g, 0, time.Hour, 3*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Rack(i%32, time.Duration(i%1200)*3*time.Second)
	}
}

// BenchmarkGeneratorFrame: one memoised single-frame read of the 316-rack
// trace, from an empty memo every iteration (synthesis plus the store).
func BenchmarkGeneratorFrame(b *testing.B) {
	g, err := NewGenerator(Spec{NumRacks: 316, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf []units.Power
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetFrameMemo()
		buf = g.Frame(buf, time.Duration(i)*3*time.Second)
	}
}

// BenchmarkFirstPeak contrasts the exhaustive one-day scan of the 316-rack
// trace at one-minute resolution with the bound-pruned search (neither
// goes through the FirstPeak memo).
func BenchmarkFirstPeak(b *testing.B) {
	g, err := NewGenerator(Spec{NumRacks: 316, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = firstPeakScan(g, 24*time.Hour, time.Minute)
		}
	})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = firstPeakPruned(g, 24*time.Hour, time.Minute)
		}
	})
}
