package serving

import (
	"reflect"
	"testing"

	"deepplan/internal/costmodel"
	"deepplan/internal/hostmem"
	"deepplan/internal/registry"
	"deepplan/internal/sim"
	"deepplan/internal/topology"
	"deepplan/internal/workload"
)

// zooServer builds a server with a host-memory budget small enough that a
// moderate zoo overflows it, forcing the cache tier to exercise fetches and
// evictions.
func zooServer(t *testing.T, hostPolicy, pack string, hostMem int64) *Server {
	t.Helper()
	hp, err := hostmem.ParsePolicy(hostPolicy)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Topo:       topology.P38xlarge(),
		Cost:       costmodel.Default(),
		Policy:     PolicyDHA,
		SLO:        100 * sim.Millisecond,
		HostMemory: hostMem,
		HostPolicy: hp,
		Pack:       PackMode(pack),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func zooFixture(t *testing.T, n int) *registry.Zoo {
	t.Helper()
	z, err := registry.New(registry.Spec{N: n, Scales: []float64{0.25, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestZooDeployOverflowsPinnedPolicy(t *testing.T) {
	z := zooFixture(t, 64)
	srv := zooServer(t, "pinned", "spread", z.TotalBytes/2)
	if err := srv.DeployZoo(z); err == nil {
		t.Fatal("pinned policy accepted a zoo larger than host memory")
	}
}

func TestZooCacheTierEnforcesCapacity(t *testing.T) {
	for _, policy := range []string{"lru", "cost"} {
		t.Run(policy, func(t *testing.T) {
			z := zooFixture(t, 64)
			hostMem := z.TotalBytes / 2
			srv := zooServer(t, policy, "dense", hostMem)
			if err := srv.DeployZoo(z); err != nil {
				t.Fatal(err)
			}
			if got := srv.host.Pinned(); got > hostMem {
				t.Fatalf("deploy pinned %d bytes over the %d budget", got, hostMem)
			}
			rep, err := srv.Run(z.Requests(42, 200, 2000))
			if err != nil {
				t.Fatal(err)
			}
			if srv.host.Pinned() > hostMem {
				t.Fatalf("run left %d bytes pinned over the %d budget", srv.host.Pinned(), hostMem)
			}
			if rep.HostMisses == 0 {
				t.Fatal("no host-cache misses despite overflowing zoo")
			}
			if rep.HostEvictions == 0 {
				t.Fatal("no host-cache evictions despite overflowing zoo")
			}
			if rep.Requests == 0 {
				t.Fatal("no requests completed")
			}
			if err := srv.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestZooLegacyReportHasNoCacheTraffic(t *testing.T) {
	// Under the default pinned policy every deployed model is host-resident,
	// so the report's cache columns must stay zero — the legacy contract.
	srv := newServer(t, PolicyDHA)
	deployBERT(t, srv, 4)
	rep, err := srv.Run(workload.Poisson(1, 50, 200, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.HostMisses != 0 || rep.HostEvictions != 0 {
		t.Fatalf("legacy run reported misses=%d evictions=%d", rep.HostMisses, rep.HostEvictions)
	}
	if rep.HostHits == 0 {
		t.Fatal("legacy cold path recorded no host hits")
	}
}

func TestZooRunDeterministic(t *testing.T) {
	run := func() Report {
		z := zooFixture(t, 48)
		srv := zooServer(t, "cost", "dense", z.TotalBytes/3)
		if err := srv.DeployZoo(z); err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Run(z.Requests(7, 150, 1500))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return *rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("zoo runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}
