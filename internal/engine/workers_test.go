package engine

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/xrand"
)

// TestWorkersDefaultInjection pins the Options.Workers contract: the
// engine-level default reaches every request, never changes results
// (parallel execution is bit-identical to serial), and never splits cache
// slots.
func TestWorkersDefaultInjection(t *testing.T) {
	g := gen.GNP(800, 10.0/800, xrand.New(7))
	p := testParams()
	serial := must(ldd.ChangLiCtx(context.Background(), g, p))

	e := New(Options{Workers: 4})
	if e.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", e.Workers())
	}
	h := e.Register(g)

	// The injected default must not perturb the output.
	d, err := changli(bg, e, h, p)
	if err != nil {
		t.Fatal(err)
	}
	for v := range serial.ClusterOf {
		if d.ClusterOf[v] != serial.ClusterOf[v] {
			t.Fatalf("vertex %d: engine(Workers:4) %d != serial %d", v, d.ClusterOf[v], serial.ClusterOf[v])
		}
	}

	// A bag spelled differently, with no workers param: the injection
	// happens on a cloned bag (the caller's map must stay untouched) and
	// shares the cache slot with the request above.
	bag := algo.Params{"eps": "0.3", "seed": "11", "scale": "0.05"}
	r, err := e.Run(bg, h, "changli", bag)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bag["workers"]; ok {
		t.Fatal("engine mutated the caller's params map")
	}
	if r.Raw.(*ldd.Decomposition) != d {
		t.Fatal("requests with injected workers split the cache")
	}

	// An explicit per-request worker count wins over the default and
	// still lands in the same cache slot (workers is excluded from keys).
	pw := p
	pw.Workers = 1
	if d1, err := changli(bg, e, h, pw); err != nil || d1 != d {
		t.Fatalf("explicit Workers:1 missed the cache: %v %v", d1, err)
	}
	if st := e.Stats(); st.Computations != 1 {
		t.Fatalf("computations = %d, want 1", st.Computations)
	}
}

// TestWorkersAccessorDefault pins the unset accessor to GOMAXPROCS.
func TestWorkersAccessorDefault(t *testing.T) {
	e := New(Options{})
	if got, want := e.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestConcurrentParallelQueries hammers a Workers:4 engine from many
// goroutines mixing algorithm families and seeds, so the race detector
// sees engine-level concurrency stacked on top of intra-query
// parallelism (shared par pool, shared graph CSR, per-query parallel
// workspaces). Every repetition of a request must be bit-identical.
func TestConcurrentParallelQueries(t *testing.T) {
	g := gen.GNP(2000, 12.0/2000, xrand.New(3))
	e := New(Options{Workers: 4})
	h := e.Register(g)

	want, err := changli(bg, e, h, testParams())
	if err != nil {
		t.Fatal(err)
	}
	ndParams := algo.Params{"seed": "5"}
	wantND, err := e.Run(bg, h, "netdecomp", ndParams)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 6
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch (i + it) % 3 {
				case 0:
					d, err := changli(bg, e, h, testParams())
					if err == nil && d != want {
						err = errDifferentInstance
					}
					errs[i] = err
				case 1:
					nd, err := e.Run(bg, h, "netdecomp", ndParams)
					if err == nil && nd != wantND {
						err = errDifferentInstance
					}
					errs[i] = err
				default:
					// Distinct seeds force fresh parallel computations
					// racing against the cache hits above.
					p := testParams()
					p.Seed = uint64(1000 + i*iters + it)
					_, err := changli(bg, e, h, p)
					errs[i] = err
				}
				if errs[i] != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}

var errDifferentInstance = errInstance{}

type errInstance struct{}

func (errInstance) Error() string { return "cached request returned a different result instance" }
