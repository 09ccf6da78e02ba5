package pcm

import "testing"

func TestEvents(t *testing.T) {
	cases := []struct {
		bytes float64
		want  uint64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2},
		{93763584, 1465056}, // BERT-Base word embedding: paper's ~1,465,112
	}
	for _, c := range cases {
		if got := Events(c.bytes); got != c.want {
			t.Errorf("Events(%g) = %d, want %d", c.bytes, got, c.want)
		}
	}
}
