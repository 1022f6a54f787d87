package workload

import (
	"testing"

	"tps/internal/addr"
	"tps/internal/trace"
)

// countSink discards references after counting them and hands out bump
// virtual addresses, so a benchmark times the generator alone.
type countSink struct {
	next addr.Virt
	refs uint64
}

func (c *countSink) Mmap(size uint64) (addr.Virt, error) {
	base := c.next.AlignUp(addr.Order1G)
	c.next = base + addr.Virt(size)
	return base, nil
}

func (c *countSink) Munmap(addr.Virt) error { return nil }

func (c *countSink) Ref(trace.Ref) error {
	c.refs++
	return nil
}

// BenchmarkGenerator measures each evaluation-suite generator's cost per
// emitted reference. One run asks for b.N measured references; ns/ref
// divides the elapsed time by every reference delivered, warm-up page
// touches included, since the simulator pays for both.
//
//	go test -run='^$' -bench=Generator ./internal/workload
func BenchmarkGenerator(b *testing.B) {
	for _, w := range EvalSuite() {
		b.Run(w.Name, func(b *testing.B) {
			s := &countSink{next: 1 << 40}
			if err := w.Run(s, uint64(b.N), 1); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.refs), "ns/ref")
		})
	}
}
