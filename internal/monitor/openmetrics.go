package monitor

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteOpenMetrics writes one OpenMetrics exposition of the registry —
// every node view's series included — ending with the mandatory `# EOF`
// line. The output is a pure function of the recorded values: families are
// sorted by name and series by their canonical label signature, so the
// byte stream does not depend on registration order. Histogram series emit
// only non-empty finite buckets plus the mandatory cumulative +Inf bucket,
// keeping files small under wide layouts.
//
// A nil registry writes an empty-but-valid exposition (just `# EOF`).
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	var b strings.Builder
	if r != nil {
		for _, fam := range r.sorted() {
			writeFamily(&b, fam)
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// sorted returns copies of the registry's families in name order, each
// with its series in signature order. The live series slices stay in
// creation order, the order Total sums in.
func (r *Registry) sorted() []*family {
	fams := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		f := *fam
		f.series = append([]*series(nil), fam.series...)
		sort.Slice(f.series, func(a, b int) bool { return f.series[a].sig < f.series[b].sig })
		fams = append(fams, &f)
	}
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
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
