package runner

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Execute must emit unit output in unit order regardless of completion
// order, for any pool size.
func TestExecuteOrdersOutput(t *testing.T) {
	const n = 16
	units := make([]Unit, n)
	for i := 0; i < n; i++ {
		i := i
		units[i] = Unit{Label: fmt.Sprint(i), Run: func(w io.Writer) error {
			// Later units sleep less, so under parallelism they tend to
			// complete before earlier ones.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			fmt.Fprintf(w, "unit %02d line a\nunit %02d line b\n", i, i)
			return nil
		}}
	}
	var want bytes.Buffer
	if err := Execute(&want, 1, units); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 32} {
		var got bytes.Buffer
		if err := Execute(&got, workers, units); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("workers=%d output differs from serial:\n%q\nvs\n%q",
				workers, got.String(), want.String())
		}
	}
}

// On failure, Execute flushes everything a serial run would have printed —
// all earlier units plus the failing unit's partial output — and returns the
// lowest-indexed error.
func TestExecuteErrorSemantics(t *testing.T) {
	errBoom := errors.New("boom")
	units := []Unit{
		{Label: "ok0", Run: func(w io.Writer) error { fmt.Fprintln(w, "zero"); return nil }},
		{Label: "bad1", Run: func(w io.Writer) error { fmt.Fprintln(w, "partial"); return errBoom }},
		{Label: "bad2", Run: func(w io.Writer) error { return errors.New("later error") }},
		{Label: "ok3", Run: func(w io.Writer) error { fmt.Fprintln(w, "discarded"); return nil }},
	}
	for _, workers := range []int{1, 4} {
		var got bytes.Buffer
		err := Execute(&got, workers, units)
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errBoom)
		}
		if want := "zero\npartial\n"; got.String() != want {
			t.Fatalf("workers=%d: output %q, want %q", workers, got.String(), want)
		}
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 100
		var hits [n]int32
		if err := ForEach(workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachReturnsLowestIndexedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 10, func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "fail-3") {
			t.Fatalf("workers=%d: err = %v, want fail-3", workers, err)
		}
	}
}

func TestForEachZeroUnits(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Execute(&buf, 4, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("Execute on no units: err=%v len=%d", err, buf.Len())
	}
}
