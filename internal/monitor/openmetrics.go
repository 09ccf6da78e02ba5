package monitor

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteOpenMetrics writes one OpenMetrics exposition of the registry —
// root and every node view folded together — ending with the mandatory
// `# EOF` line. The output is a pure function of the recorded values:
// families are sorted by name and series by their canonical label
// signature, so the byte stream does not depend on registration order or
// view merge order (the analogue of trace.MergeViews' stable sort).
// Histogram series emit only non-empty finite buckets plus the mandatory
// cumulative +Inf bucket, keeping files small under wide layouts.
//
// A nil registry writes an empty-but-valid exposition (just `# EOF`).
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	var b strings.Builder
	if r != nil {
		for _, fam := range r.fold() {
			writeFamily(&b, fam)
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// fold merges the root registry and its views into sorted export families.
func (r *Registry) fold() []*family {
	merged := make(map[string]*family)
	var names []string
	for _, reg := range r.self() {
		for name, fam := range reg.families {
			out, ok := merged[name]
			if !ok {
				out = &family{name: name, help: fam.help, kind: fam.kind,
					buckets: fam.buckets, index: make(map[string]*series)}
				merged[name] = out
				names = append(names, name)
			}
			for _, s := range fam.series {
				dst, ok := out.index[s.sig]
				if !ok {
					out.index[s.sig] = s
					out.series = append(out.series, s)
					continue
				}
				// Same signature in two views cannot happen through the
				// node-label bases; fold by summation as a safe fallback.
				dst.value += s.value
				dst.sum += s.sum
				dst.count += s.count
				for i := range dst.counts {
					if i < len(s.counts) {
						dst.counts[i] += s.counts[i]
					}
				}
			}
		}
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fam := merged[name]
		sort.Slice(fam.series, func(a, b int) bool { return fam.series[a].sig < fam.series[b].sig })
		fams[i] = fam
	}
	return fams
}

func writeFamily(b *strings.Builder, fam *family) {
	if fam.help != "" {
		b.WriteString("# HELP ")
		b.WriteString(fam.name)
		b.WriteByte(' ')
		b.WriteString(strings.ReplaceAll(fam.help, "\n", " "))
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(fam.name)
	b.WriteByte(' ')
	b.WriteString(fam.kind.String())
	b.WriteByte('\n')
	for _, s := range fam.series {
		switch fam.kind {
		case kindCounter:
			writeSample(b, fam.name+"_total", s.sig, "", s.value)
		case kindGauge:
			writeSample(b, fam.name, s.sig, "", s.value)
		case kindHistogram:
			var cum uint64
			for i, c := range s.counts {
				cum += c
				last := i == len(s.counts)-1
				if c == 0 && !last {
					continue
				}
				le := formatValue(fam.buckets.UpperBound(i))
				writeSample(b, fam.name+"_bucket", s.sig, le, float64(cum))
			}
			writeSample(b, fam.name+"_sum", s.sig, "", s.sum)
			writeSample(b, fam.name+"_count", s.sig, "", float64(s.count))
		}
	}
}

func writeSample(b *strings.Builder, name, sig, le string, v float64) {
	b.WriteString(name)
	if sig != "" || le != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		if le != "" {
			if sig != "" {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
