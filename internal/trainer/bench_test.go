package trainer

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

// BenchmarkTrainWindow is one autopilot-sized retrain: TrainWindow over a
// full 4,096-record window (autopilot.DefaultWindowCap), with 1 GNN and
// 2 NN epochs. Run it with -benchmem for the bytes a retrain allocates;
// peak_heap_mb is the largest heap of live and unswept objects sampled
// while it trains, the records included.
func BenchmarkTrainWindow(b *testing.B) {
	recs, _ := dataset(b, 4096, 0, 11)
	cfg := DefaultConfig(11)
	cfg.NN.Epochs = 2
	cfg.GNN.Epochs = 1
	b.ReportAllocs()
	b.ResetTimer()
	peak := sampleHeapPeak()
	for i := 0; i < b.N; i++ {
		// Each retrain starts from a collected heap, as the offline
		// benchmark's repetitions do: what an earlier retrain left is not
		// this one's peak.
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		if _, err := TrainWindow(recs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(peak())/(1<<20), "peak_heap_mb")
}

// sampleHeapPeak polls the bytes of live and not yet swept heap objects
// every 200µs until the returned function is called, which stops the
// sampling and returns the largest value seen.
func sampleHeapPeak() func() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return peak
	}
}
