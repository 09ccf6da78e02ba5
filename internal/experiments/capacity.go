package experiments

import (
	"io"

	"deepplan/internal/capacity"
	"deepplan/internal/sim"
)

// FigCapacity runs the capacity planner over the default config grid: both
// evaluation platforms, one and two nodes, and the three competitive plan
// policies, each saturation-searched for its maximum sustainable rate at a
// 300 ms p99 SLO and priced in dollars per hour. The table is the answer
// the paper's evaluation implies but never states — what the cold-start
// plans are worth in provisioning terms: pt+dha sustains more load on the
// same hardware than PipeSwitch, so the cheapest configuration meeting a
// target rate is reached with strictly fewer dollars.
func FigCapacity(w io.Writer, opts Options) error {
	header(w, "Capacity planning: cost-vs-capacity frontier over the config grid")
	spec := capacity.SearchSpec{SLO: 300 * sim.Millisecond}.WithWindow(opts.Quick)
	targetRPS := 100
	if opts.Quick {
		targetRPS = 60
	}
	results, err := capacity.Sweep(capacity.DefaultSpace(), spec, capacity.DefaultPricing(), opts.Workers)
	if err != nil {
		return err
	}
	capacity.Analyze(spec, results, targetRPS, 0).WriteTable(w)
	return nil
}
