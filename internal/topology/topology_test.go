package topology

import (
	"slices"
	"strings"
	"testing"
)

func TestP38xlargeShape(t *testing.T) {
	topo := P38xlarge()
	if topo.NumGPUs() != 4 {
		t.Fatalf("NumGPUs = %d, want 4", topo.NumGPUs())
	}
	if len(topo.Uplinks) != 2 {
		t.Fatalf("switches = %d, want 2", len(topo.Uplinks))
	}
	// GPUs 0,1 on switch 0; GPUs 2,3 on switch 1.
	if !topo.SameSwitch(0, 1) || !topo.SameSwitch(2, 3) {
		t.Fatal("expected pairs (0,1) and (2,3) to share switches")
	}
	if topo.SameSwitch(0, 2) || topo.SameSwitch(1, 3) {
		t.Fatal("expected cross pairs on different switches")
	}
	for _, g := range topo.GPUs {
		if g.MemoryBytes != 16*GiB {
			t.Fatalf("GPU %d memory = %d, want 16 GiB", g.ID, g.MemoryBytes)
		}
	}
}

func TestP38xlargeNVLinkFullMesh(t *testing.T) {
	topo := P38xlarge()
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b {
				continue
			}
			if !topo.HasNVLink(a, b) {
				t.Fatalf("missing NVLink %d->%d", a, b)
			}
			path, ok := topo.GPUToGPUPath(a, b)
			if !ok || len(path) != 1 {
				t.Fatalf("GPUToGPUPath(%d,%d) = %v, %v", a, b, path, ok)
			}
		}
	}
	if topo.HasNVLink(0, 0) {
		t.Fatal("self NVLink should not exist")
	}
}

func TestHostToGPUPath(t *testing.T) {
	topo := P38xlarge()
	for g := 0; g < 4; g++ {
		path := topo.HostToGPUPath(g)
		if len(path) != 2 {
			t.Fatalf("path to GPU %d has %d links, want 2", g, len(path))
		}
		if path[0] != topo.Uplinks[topo.GPU(g).Switch] {
			t.Fatalf("GPU %d path does not start at its switch uplink", g)
		}
		if path[1] != topo.GPU(g).Lane {
			t.Fatalf("GPU %d path does not end at its lane", g)
		}
	}
	if topo.HostToGPUPath(99) != nil {
		t.Fatal("out-of-range GPU should yield nil path")
	}
	if topo.GPU(-1) != nil {
		t.Fatal("GPU(-1) should be nil")
	}
}

func TestParallelPartners(t *testing.T) {
	topo := P38xlarge()
	// Partners of GPU 0 must be on switch 1 only: GPUs 2, 3.
	got := topo.ParallelPartners(0)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("ParallelPartners(0) = %v, want [2 3]", got)
	}
	got = topo.ParallelPartners(3)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("ParallelPartners(3) = %v, want [0 1]", got)
	}
}

// TestSecondaries checks the one parallel-transmission partner rule: the
// lowest-ID partner on each other PCIe switch, nothing for a single
// partition, and an error naming the topology when it falls short.
func TestSecondaries(t *testing.T) {
	for _, c := range []struct {
		name       string
		topo       *Topology
		primary, n int
		want       []int
		err        string
	}{
		{"one partner", P38xlarge(), 0, 1, []int{2}, ""},
		{"from switch 1", P38xlarge(), 3, 1, []int{0}, ""},
		{"single partition", P38xlarge(), 1, 0, nil, ""},
		{"one per switch", DGX1(), 0, 2, []int{2, 4}, ""},
		{"too few partners", P38xlarge(), 0, 2, nil, "p3.8xlarge offers 1"},
		{"bogus primary", P38xlarge(), 99, 1, nil, "no GPU 99 in p3.8xlarge"},
	} {
		got, err := c.topo.Secondaries(c.primary, c.n)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("%s: Secondaries(%d, %d) = %v, %v; want %v", c.name, c.primary, c.n, got, err, c.want)
		}
	}
}

func TestDualA5000(t *testing.T) {
	topo := DualA5000PCIe4()
	if topo.NumGPUs() != 2 {
		t.Fatalf("NumGPUs = %d, want 2", topo.NumGPUs())
	}
	if topo.SameSwitch(0, 1) {
		t.Fatal("A5000s should be on separate root ports")
	}
	if !topo.HasNVLink(0, 1) || !topo.HasNVLink(1, 0) {
		t.Fatal("A5000 pair should have NVLink")
	}
	if topo.LaneBandwidth() <= P38xlarge().LaneBandwidth() {
		t.Fatal("PCIe 4.0 lane should be faster than PCIe 3.0")
	}
	p := topo.ParallelPartners(0)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("ParallelPartners(0) = %v, want [1]", p)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Spec{
		{NumGPUs: 0, GPUsPerSwitch: 1, LaneBandwidth: 1, UplinkBandwidth: 1},
		{NumGPUs: 2, GPUsPerSwitch: 0, LaneBandwidth: 1, UplinkBandwidth: 1},
		{NumGPUs: 2, GPUsPerSwitch: 1, LaneBandwidth: 0, UplinkBandwidth: 1},
		{NumGPUs: 2, GPUsPerSwitch: 1, LaneBandwidth: 1, UplinkBandwidth: 0},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
}

func TestNoNVLinkTopology(t *testing.T) {
	topo, err := New(Spec{
		Name: "plain", GPUName: "gpu", NumGPUs: 2, GPUMemoryBytes: GiB,
		GPUsPerSwitch: 1, LaneBandwidth: 10 * GB, UplinkBandwidth: 11 * GB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.HasNVLink(0, 1) {
		t.Fatal("topology without NVLink reports a link")
	}
	if topo.NVLinkBandwidth() != 0 {
		t.Fatal("NVLinkBandwidth should be 0")
	}
	if got := topo.ParallelPartners(0); len(got) != 0 {
		t.Fatalf("partners without NVLink = %v, want none", got)
	}
}

func TestLinksEnumeratesEverythingDeterministically(t *testing.T) {
	topo := P38xlarge()
	links := topo.Links()
	// 2 uplinks + 4 lanes + 4*3 NVLinks (full mesh, unidirectional).
	if len(links) != 2+4+12 {
		t.Fatalf("Links() = %d links, want 18", len(links))
	}
	again := topo.Links()
	for i := range links {
		if links[i] != again[i] {
			t.Fatalf("Links() order unstable at %d: %s vs %s", i, links[i].Name(), again[i].Name())
		}
	}
	seen := map[string]bool{}
	for _, l := range links {
		if seen[l.Name()] {
			t.Fatalf("duplicate link %s", l.Name())
		}
		seen[l.Name()] = true
	}
}

func TestFindLinkByFullNameAndSuffix(t *testing.T) {
	topo := P38xlarge()
	lane := topo.GPUs[2].Lane
	if got := topo.FindLink("gpu2-lane"); got != lane {
		t.Fatalf("FindLink suffix: got %v, want gpu2 lane", got)
	}
	if got := topo.FindLink("p3.8xlarge/gpu2-lane"); got != lane {
		t.Fatalf("FindLink full name: got %v, want gpu2 lane", got)
	}
	if got := topo.FindLink("switch1-uplink"); got != topo.Uplinks[1] {
		t.Fatalf("FindLink uplink: got %v, want uplink 1", got)
	}
	if got := topo.FindLink("nvlink-0-to-2"); got != topo.GPUs[0].NVLinks[2] {
		t.Fatalf("FindLink nvlink: got %v", got)
	}
	if got := topo.FindLink("no-such-link"); got != nil {
		t.Fatalf("FindLink unknown: got %v, want nil", got)
	}
}
