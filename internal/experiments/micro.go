package experiments

import (
	"fmt"
	"io"

	"deepplan/internal/costmodel"
	"deepplan/internal/dnn"
	"deepplan/internal/plan"
	"deepplan/internal/sim"
	"deepplan/internal/simnet"
	"deepplan/internal/stream"
	"deepplan/internal/topology"
)

// Figure2 decomposes pipelined (PipeSwitch) cold-start latency into GPU
// execution time and stall time. The paper reports 73-75% stall for
// BERT/RoBERTa and 27-37% for ResNet/GPT.
func Figure2(w io.Writer, _ Options) error {
	header(w, "Figure 2: inference latency decomposition under pipelined loading (batch 1)")
	fmt.Fprintf(w, "%-14s %10s %10s %10s %8s\n", "model", "total(ms)", "exec(ms)", "stall(ms)", "stall%")
	for _, name := range dnn.EvaluationNames() {
		res, err := coldRun(topology.P38xlarge, name, plan.ModePipeSwitch, 1)
		if err != nil {
			return err
		}
		total := res.Latency()
		stall := res.TotalStall
		fmt.Fprintf(w, "%-14s %10.2f %10.2f %10.2f %7.0f%%\n",
			name, ms(total), ms(total-stall), ms(stall), 100*stall.Seconds()/total.Seconds())
	}
	fmt.Fprintln(w, "\npaper: BERT/RoBERTa stall 73-75%; ResNet and GPT 27-37%")
	return nil
}

// microLayer describes one Figure 5 / Table 1 specimen.
type microLayer struct {
	label string
	layer *dnn.Layer
	// paper's Table 1 event counts, 0 if the paper has no row
	paperLoadEv, paperDHAEv int
}

// fig5Layers picks the paper's specimen layers out of the real models:
// BERT-Base's position (1.50 MiB) and word (89.42 MiB) embeddings; medium
// (2.25 MiB) and large (9 MiB) convolution-shaped layers; small (2.25 MiB)
// and large (9 MiB) fully-connected layers from the BERT encoder.
func fig5Layers() []microLayer {
	bert, _ := dnn.ByName("bert-base")
	var word, pos, fcSmall, fcLarge *dnn.Layer
	for i := range bert.Layers {
		l := &bert.Layers[i]
		switch l.Name {
		case "embeddings.word":
			word = l
		case "embeddings.position":
			pos = l
		case "encoder.0.attention.query":
			fcSmall = l // 768x768 = 2.25 MiB
		case "encoder.0.intermediate":
			fcLarge = l // 768x3072 = 9 MiB
		}
	}
	// Convolutions with the paper's sizes (2.25 MiB = 256->256 3x3 at 14^2
	// resolution; 9 MiB = 512->512 3x3 at 7^2), as found in ResNet stages.
	convMed := &dnn.Layer{Name: "conv3x3-256ch", Kind: dnn.Conv2D,
		ParamBytes: 256 * 256 * 9 * 4,
		FLOPs:      2 * 256 * 256 * 9 * 14 * 14,
		ActBytes:   2 * 256 * 14 * 14 * 4}
	convLarge := &dnn.Layer{Name: "conv3x3-512ch", Kind: dnn.Conv2D,
		ParamBytes: 512 * 512 * 9 * 4,
		FLOPs:      2 * 512 * 512 * 9 * 7 * 7,
		ActBytes:   2 * 512 * 7 * 7 * 4}
	return []microLayer{
		{"Embedding medium (1.50MB)", pos, 24_580, 18_267},
		{"Embedding large (89.42MB)", word, 1_465_112, 18_459},
		{"Conv medium (2.25MB)", convMed, 36_869, 65_891},
		{"Conv large (9.0MB)", convLarge, 147_465, 273_487},
		{"FC small (2.25MB)", fcSmall, 36_920, 446_276},
		{"FC large (9.0MB)", fcLarge, 147_660, 1_765_787},
	}
}

// Figure5 compares load-then-execute against direct-host-access per layer.
func Figure5(w io.Writer, _ Options) error {
	header(w, "Figure 5: layer performance, load-then-execute vs direct-host-access (batch 1)")
	cost := costmodel.Default()
	topo := topology.P38xlarge()
	bw := topo.LaneBandwidth()
	overhead := sim.Duration(topo.PerCopyOverheadNanos)
	fmt.Fprintf(w, "%-26s %10s %10s %12s %12s %8s\n",
		"layer", "load(us)", "exec(us)", "load+exec", "DHA exec", "winner")
	for _, ml := range fig5Layers() {
		load := cost.LoadTime(ml.layer, bw, overhead)
		exec := cost.ComputeTime(ml.layer, 1)
		dha := cost.DHAExecNominal(ml.layer, 1, bw)
		winner := "load"
		if dha < load+exec {
			winner = "DHA"
		}
		us := func(d sim.Duration) float64 { return d.Seconds() * 1e6 }
		fmt.Fprintf(w, "%-26s %10.1f %10.1f %12.1f %12.1f %8s\n",
			ml.label, us(load), us(exec), us(load+exec), us(dha), winner)
	}
	fmt.Fprintln(w, "\npaper: DHA wins for embeddings; convs comparable until large; FCs always favour load")
	return nil
}

// Table1 counts PCIe read transactions (64 B payload) for the Figure 5
// layers under both methods, next to the paper's measured counts.
func Table1(w io.Writer, _ Options) error {
	header(w, "Table 1: PCIe read events (PCIeRdCur), load vs direct-host-access")
	cost := costmodel.Default()
	fmt.Fprintf(w, "%-26s %12s %12s %14s %14s\n",
		"layer", "load", "DHA", "paper load", "paper DHA")
	for _, ml := range fig5Layers() {
		loadEv := cost.PCIeReadEvents(float64(ml.layer.ParamBytes))
		dhaEv := cost.PCIeReadEvents(cost.DHABytes(ml.layer, 1))
		fmt.Fprintf(w, "%-26s %12d %12d %14d %14d\n",
			ml.label, loadEv, dhaEv, ml.paperLoadEv, ml.paperDHAEv)
	}
	return nil
}

// transmissionResult holds one Figure 6 / Table 2 measurement.
type transmissionResult struct {
	completion sim.Duration
	avgLaneBW  float64 // bytes/s averaged over participating lanes
}

// runTransmission measures pure model-transmission time (no execution) for
// the three schemes of §3.2:
//
//	serial            — the whole model host→GPU0.
//	parallel          — k contiguous partitions, each host→GPU_k in
//	                    parallel; partitions k>0 are then forwarded to GPU0
//	                    over NVLink after the partition fully lands.
//	parallel-pipeline — like parallel, but each layer is forwarded as soon
//	                    as it lands (the scheme DeepPlan PT uses).
//
// GPU assignment mirrors the paper's platform: with two partitions the GPUs
// sit on different switches (0 and 2); with four, all GPUs participate and
// pairs share switch uplinks, producing the contention of Table 2.
func runTransmission(m *dnn.Model, scheme string, gpus int) transmissionResult {
	s := sim.New()
	net := simnet.New(s)
	topo := topology.P38xlarge()

	var gpuIDs []int
	switch gpus {
	case 1:
		gpuIDs = []int{0}
	case 2:
		gpuIDs = []int{0, 2}
	case 4:
		gpuIDs = []int{0, 1, 2, 3}
	default:
		panic(fmt.Sprintf("unsupported GPU count %d", gpus))
	}

	// Partition layers contiguously by bytes.
	total := m.TotalParamBytes()
	k := len(gpuIDs)
	part := make([]int, m.NumLayers())
	var acc int64
	cur := 0
	for i := range m.Layers {
		for cur < k-1 && acc >= (int64(cur)+1)*total/int64(k) {
			cur++
		}
		part[i] = cur
		acc += m.Layers[i].ParamBytes
	}

	overhead := sim.Duration(topo.PerCopyOverheadNanos)
	nvOverhead := sim.Duration(topo.NVLinkCopyOverheadNanos)

	loads := make([]*stream.Stream, k)
	migs := make([]*stream.Stream, k)
	for i := range loads {
		loads[i] = stream.New(s, fmt.Sprintf("load%d", i))
		migs[i] = stream.New(s, fmt.Sprintf("mig%d", i))
	}

	type laneStat struct {
		bytes      float64
		start, end sim.Time
		started    bool
	}
	stats := make([]laneStat, k)

	var finish sim.Time
	remaining := 0
	done := func() {
		remaining--
		if remaining == 0 {
			finish = s.Now()
		}
	}

	copyLayer := func(pi int, bytes float64, onArrive func()) {
		gpu := gpuIDs[pi]
		path := topo.HostToGPUPath(gpu)
		loads[pi].Submit("copy", func(dn func()) {
			if !stats[pi].started {
				stats[pi].started = true
				stats[pi].start = s.Now()
			}
			s.After(overhead, func() {
				net.StartFlow("copy", path, bytes, func(at sim.Time) {
					stats[pi].bytes += bytes
					stats[pi].end = at
					onArrive()
					dn()
				})
			})
		})
	}
	forward := func(pi int, bytes float64, onArrive func()) {
		path, ok := topo.GPUToGPUPath(gpuIDs[pi], gpuIDs[0])
		if !ok {
			panic("no NVLink path")
		}
		migs[pi].Submit("fwd", func(dn func()) {
			s.After(nvOverhead, func() {
				net.StartFlow("fwd", path, bytes, func(sim.Time) {
					onArrive()
					dn()
				})
			})
		})
	}

	switch scheme {
	case "serial":
		for i := range m.Layers {
			l := &m.Layers[i]
			if !l.HasParams() {
				continue
			}
			remaining++
			copyLayer(0, float64(l.ParamBytes), done)
		}
	case "parallel":
		// Forward each non-first partition as one block after it lands.
		partBytes := make([]float64, k)
		for i := range m.Layers {
			if m.Layers[i].HasParams() {
				partBytes[part[i]] += float64(m.Layers[i].ParamBytes)
			}
		}
		for i := range m.Layers {
			l := &m.Layers[i]
			if !l.HasParams() {
				continue
			}
			pi := part[i]
			if pi == 0 {
				remaining++
				copyLayer(0, float64(l.ParamBytes), done)
				continue
			}
			copyLayer(pi, float64(l.ParamBytes), func() {})
		}
		for pi := 1; pi < k; pi++ {
			pi := pi
			remaining++
			// A sentinel task after all copies of the partition triggers
			// the block forward.
			loads[pi].Do("landed", func() {
				forward(pi, partBytes[pi], done)
			})
		}
	case "parallel-pipeline":
		for i := range m.Layers {
			l := &m.Layers[i]
			if !l.HasParams() {
				continue
			}
			pi := part[i]
			bytes := float64(l.ParamBytes)
			remaining++
			if pi == 0 {
				copyLayer(pi, bytes, done)
				continue
			}
			copyLayer(pi, bytes, func() { forward(pi, bytes, done) })
		}
	default:
		panic("unknown scheme " + scheme)
	}

	s.Run()

	var bwSum float64
	lanes := 0
	for i := range stats {
		if stats[i].bytes > 0 && stats[i].end > stats[i].start {
			bwSum += stats[i].bytes / stats[i].end.Sub(stats[i].start).Seconds()
			lanes++
		}
	}
	res := transmissionResult{completion: sim.Duration(finish)}
	if lanes > 0 {
		res.avgLaneBW = bwSum / float64(lanes)
	}
	return res
}

// microModels are the four models Figure 6, Table 2, Figure 12 and Table 5
// measure.
var microModels = []string{"resnet50", "bert-base", "roberta-large", "gpt2-medium"}

// Figure6 measures model loading time for the transmission schemes.
func Figure6(w io.Writer, _ Options) error {
	header(w, "Figure 6: model loading time, serial vs parallel vs parallel-pipeline")
	fmt.Fprintf(w, "%-14s %11s %12s %15s %15s %15s\n",
		"model", "serial(ms)", "parallel(2)", "par-pipe(2)", "parallel(4)", "par-pipe(4)")
	for _, name := range microModels {
		m, err := dnn.ByName(name)
		if err != nil {
			return err
		}
		serial := runTransmission(m, "serial", 1).completion
		p2 := runTransmission(m, "parallel", 2).completion
		pp2 := runTransmission(m, "parallel-pipeline", 2).completion
		p4 := runTransmission(m, "parallel", 4).completion
		pp4 := runTransmission(m, "parallel-pipeline", 4).completion
		fmt.Fprintf(w, "%-14s %11.2f %12.2f %15.2f %15.2f %15.2f\n",
			name, ms(serial), ms(p2), ms(pp2), ms(p4), ms(pp4))
	}
	fmt.Fprintln(w, "\npaper: parallel(2) cuts 30-45%; parallel-pipeline(2) roughly halves transformer loads;")
	fmt.Fprintln(w, "       4 GPUs add little because switch-shared uplinks contend")
	return nil
}

// Table2 reports the achieved per-lane PCIe bandwidth for the same schemes.
func Table2(w io.Writer, _ Options) error {
	header(w, "Table 2: average PCIe bandwidth (GB/s) per transmission scheme")
	fmt.Fprintf(w, "%-14s %10s %22s %22s   %s\n",
		"model", "serial(1)", "parallel-pipeline(2)", "parallel-pipeline(4)", "paper serial/2/4")
	paper := map[string][3]float64{
		"resnet50":      {9.10, 9.13, 7.01},
		"bert-base":     {10.87, 10.67, 5.89},
		"roberta-large": {10.94, 10.75, 6.01},
		"gpt2-medium":   {11.52, 11.32, 5.96},
	}
	for _, name := range microModels {
		m, err := dnn.ByName(name)
		if err != nil {
			return err
		}
		s1 := runTransmission(m, "serial", 1).avgLaneBW / 1e9
		s2 := runTransmission(m, "parallel-pipeline", 2).avgLaneBW / 1e9
		s4 := runTransmission(m, "parallel-pipeline", 4).avgLaneBW / 1e9
		p := paper[name]
		fmt.Fprintf(w, "%-14s %10.2f %22.2f %22.2f   %.2f / %.2f / %.2f\n",
			name, s1, s2, s4, p[0], p[1], p[2])
	}
	return nil
}
