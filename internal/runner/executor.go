package runner

import (
	"hash/fnv"
	"runtime"
	"sync"
	"time"
)

// DeriveSeed mixes a root seed with a spec name (FNV-1a) into a per-run
// seed. The same (root, name) pair always yields the same seed, so a batch
// is reproducible while distinct runs stay decorrelated.
func DeriveSeed(root int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	seed := int64(h.Sum64()) ^ root
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Execute fans a batch of RunSpecs across at most workers goroutines (<=0
// means GOMAXPROCS) and returns the results in spec order, each with its
// wall-clock Elapsed. Results are bit-identical for any worker count: each
// spec runs in its own isolated world whose seed is fixed before any worker
// starts (explicit spec seed, or derived from rootSeed and the spec name),
// so scheduling order between workers cannot leak into the measurements.
// The first error (earliest spec index) is returned after all in-flight
// runs finish; remaining specs are still attempted so timing stays
// comparable.
func Execute(workers int, rootSeed int64, specs []RunSpec) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}

	// Resolve seeds up front so results cannot depend on which worker picks
	// up which spec.
	resolved := make([]RunSpec, len(specs))
	for i, s := range specs {
		if s.Seed == 0 {
			s.Seed = DeriveSeed(rootSeed, s.Name)
		}
		resolved[i] = s
	}

	results := make([]Result, len(resolved))
	errs := make([]error, len(resolved))

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				res, err := Run(resolved[i])
				res.Elapsed = time.Since(start)
				results[i], errs[i] = res, err
			}
		}()
	}
	for i := range resolved {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
