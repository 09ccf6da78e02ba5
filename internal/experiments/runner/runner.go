// Package runner executes independent simulation units across a bounded
// worker pool while keeping output byte-identical to a serial run.
//
// Every unit writes into a private buffer; buffers are flushed to the
// caller's writer in unit order, so the interleaving of concurrent units
// never leaks into the output. The determinism guarantee rests on the units
// themselves being self-contained: in this repository every experiment and
// every sweep point builds its own sim.Simulator, topology, and workload, so
// a unit's bytes are a pure function of its inputs and parallelism exists
// only *between* simulations, never inside one.
package runner

import (
	"bytes"
	"io"
	"sync"
)

// Unit is one independent piece of work producing buffered output.
type Unit struct {
	Label string // diagnostic label, e.g. an experiment ID
	Run   func(w io.Writer) error
}

// Execute runs units over a pool of workers goroutines; one or fewer runs
// them serially on the calling goroutine. Output is flushed to w strictly
// in unit order. On failure the error of the lowest-indexed failed unit is
// returned after flushing every earlier unit's output plus the failed
// unit's partial output — exactly the bytes a serial run would have
// emitted before stopping. Units after the failed one still run but their
// output is discarded.
func Execute(w io.Writer, workers int, units []Unit) error {
	bufs := make([]bytes.Buffer, len(units))
	errs := make([]error, len(units))
	forEach(workers, len(units), func(i int) {
		errs[i] = units[i].Run(&bufs[i])
	})
	for i := range units {
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// ForEach runs fn(0), …, fn(n-1) across a bounded pool of workers goroutines
// and returns the error of the lowest-indexed failed call — the same error a
// serial loop would have stopped on. With one worker or fewer it degenerates
// to a plain loop on the calling goroutine, stopping at the first error.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	forEach(workers, n, func(i int) {
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach fans indices out to workers goroutines and waits for all of them.
func forEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
