package check

// Differential gate for the DPOR race analysis's dependence-class index:
// clockOf and ghostRaces scan only the entries of a step's class (the
// same cell's accesses, or the property-visible entries), and
// compensate skips repeated ghosts. The reference below scans the whole
// path, testing every earlier entry with deventsDependent, on a fresh
// scratch per task, so neither the index nor the clocks reused across
// consecutive tasks can hide a difference.

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"cfc/internal/contention"
	"cfc/internal/driver"
	"cfc/internal/metrics"
	"cfc/internal/mutex"
	"cfc/internal/naming"
	"cfc/internal/opset"
	"cfc/internal/sim"
)

// fullScanClockOf is the reference clockOf: the previous own entry is
// found by a backward scan and every earlier entry is tested.
func fullScanClockOf(sc *dscratch, j int, races *[]int) {
	cur := &sc.ents[j]
	clear(cur.clk)
	for i := j - 1; i >= 0; i-- {
		if sc.ents[i].pid == cur.pid {
			copy(cur.clk, sc.ents[i].clk)
			break
		}
	}
	for i := 0; i < j; i++ {
		f := &sc.ents[i]
		if f.pid == cur.pid || !deventsDependent(f, cur) {
			continue
		}
		if races != nil && f.seq > cur.clk[f.pid] {
			*races = append(*races, i)
		}
		joinClk(cur.clk, f.clk)
	}
	cur.clk[cur.pid] = cur.seq
}

// fullScanGhostRaces is the reference ghostRaces over the whole path.
func fullScanGhostRaces(sc *dscratch, m int, g *devent) {
	g.clk = sc.ghostClk
	clear(g.clk)
	for i := m - 1; i >= 0; i-- {
		if sc.ents[i].pid == g.pid {
			copy(g.clk, sc.ents[i].clk)
			break
		}
	}
	g.seq = g.clk[g.pid] + 1
	sc.races = sc.races[:0]
	for i := 0; i < m; i++ {
		f := &sc.ents[i]
		if f.pid == g.pid || !deventsDependent(f, g) {
			continue
		}
		if f.seq > g.clk[f.pid] {
			sc.races = append(sc.races, i)
		}
		joinClk(g.clk, f.clk)
	}
	g.clk[g.pid] = g.seq
}

// allGhosts lists every compensation ghost of a node without
// deduplication: each pending step, then one per recorded access of each
// live process. Must run after stateHash with the session at the node.
func allGhosts(core *replayCore, live []int) []devent {
	var out []devent
	for _, po := range core.pendingOps() {
		g := devent{pid: int32(po.PID), kind: uint8(po.Kind)}
		switch po.Kind {
		case sim.KindAccess:
			g.acc = po.Acc()
		case sim.KindMark, sim.KindOutput:
			g.vis = true
		}
		out = append(out, g)
	}
	for _, q := range live {
		for _, en := range core.hist[q] {
			if en.kind == uint8(sim.KindAccess) {
				out = append(out, devent{
					pid:  int32(q),
					kind: en.kind,
					acc:  opset.Acc{Op: opset.Op(en.op), Cell: en.cell, Shift: en.shift, Width: en.width, Arg: en.aux},
				})
			}
		}
	}
	return out
}

// classJob is one program whose wave tasks are replayed through the
// class-indexed and the full-scan analysis.
type classJob struct {
	name  string
	build Builder
	prop  Property
	opts  Options
}

// maxClassTasks bounds the tasks taken from one exploration.
const maxClassTasks = 300

// waveTasks collects the first wave tasks of a DPOR exploration, in
// task order, by driving the wave seam.
func waveTasks(t *testing.T, j classJob) []Node {
	t.Helper()
	m, err := NewWaveMaster(j.build, j.prop, j.opts)
	if err != nil {
		t.Fatalf("%s: %v", j.name, err)
	}
	p, err := NewWaveProber(j.build, j.prop, j.opts)
	if err != nil {
		t.Fatalf("%s: %v", j.name, err)
	}
	defer p.Close()
	var tasks []Node
	for !m.Done() && len(tasks) < maxClassTasks {
		wave := m.Wave()
		reps := make([]WaveReport, len(wave))
		for i, nd := range wave {
			if reps[i], err = p.ProbeWave(nd); err != nil {
				t.Fatalf("%s: %v", j.name, err)
			}
		}
		tasks = append(tasks, wave...)
		if err := m.Commit(reps); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
	}
	return tasks
}

// depthMaskSet sorts and deduplicates a registration list.
func depthMaskSet(dms []DepthMask) []DepthMask {
	out := slices.Clone(dms)
	slices.SortFunc(out, func(a, b DepthMask) int {
		if a.Depth != b.Depth {
			return a.Depth - b.Depth
		}
		switch {
		case a.Mask < b.Mask:
			return -1
		case a.Mask > b.Mask:
			return 1
		}
		return 0
	})
	return slices.Compact(out)
}

// checkClassIndex runs the job's wave tasks, in wave order and then
// shuffled, through one prober's scratch, and compares every task with
// the full-scan reference on a fresh scratch.
func checkClassIndex(t *testing.T, j classJob, rng *rand.Rand) {
	t.Helper()
	tasks := waveTasks(t, j)
	shuffled := slices.Clone(tasks)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	tasks = append(tasks, shuffled...)

	p, err := NewWaveProber(j.build, j.prop, j.opts)
	if err != nil {
		t.Fatalf("%s: %v", j.name, err)
	}
	defer p.Close()
	ref, err := NewWaveProber(j.build, j.prop, j.opts)
	if err != nil {
		t.Fatalf("%s: %v", j.name, err)
	}
	defer ref.Close()
	cfg := &ref.cfg
	var races []int
	for _, nd := range tasks {
		sched := nd.Schedule
		m := len(sched)
		rep, err := p.ProbeWave(nd)
		if err != nil {
			t.Fatalf("%s %v: %v", j.name, sched, err)
		}
		sc := p.sc

		osc := newDScratch(cfg.maxDepth, cfg.nprocs)
		tr, live, err := ref.core.stateAt(sched)
		if err != nil {
			t.Fatalf("%s %v: %v", j.name, sched, err)
		}
		if err := cfg.syncPath(osc, tr, sched); err != nil {
			t.Fatalf("%s %v: %v", j.name, sched, err)
		}
		var wantRaces []int
		for k := 0; k < m; k++ {
			if k == m-1 {
				fullScanClockOf(osc, k, &wantRaces)
			} else {
				fullScanClockOf(osc, k, nil)
			}
		}
		for k := 0; k < m; k++ {
			a, b := &sc.ents[k], &osc.ents[k]
			if a.pid != b.pid || a.kind != b.kind || a.vis != b.vis || a.acc != b.acc || a.seq != b.seq {
				t.Fatalf("%s %v: entry %d is %+v, reference %+v", j.name, sched, k, *a, *b)
			}
			if !slices.Equal(a.clk, b.clk) {
				t.Fatalf("%s %v: clock of entry %d is %v, reference %v", j.name, sched, k, a.clk, b.clk)
			}
		}
		var wantMasks []DepthMask
		if m > 0 {
			races = races[:0]
			clockOf(sc, m-1, &races)
			if !slices.Equal(races, wantRaces) {
				t.Fatalf("%s %v: races of the arriving step %v, reference %v", j.name, sched, races, wantRaces)
			}
			if cur := &osc.ents[m-1]; cur.kind != uint8(sim.KindCrash) {
				for _, k := range wantRaces {
					cfg.addBacktrack(osc, k, m-1, cur, &wantMasks)
				}
			}
		}
		if got, want := depthMaskSet(rep.Masks), depthMaskSet(wantMasks); !slices.Equal(got, want) {
			t.Fatalf("%s %v: masks %v, reference %v", j.name, sched, got, want)
		}

		// Compensation runs only where the stage reached it: a node that
		// may expand, below the root.
		var wantComp []DepthMask
		if m > 0 && !rep.HasViol && !rep.Leaf {
			ref.core.stateHash(tr, cfg.collapse)
			for _, g := range allGhosts(&ref.core, live) {
				og := g
				fullScanGhostRaces(osc, m, &og)
				pg := g
				ghostRaces(sc, &pg)
				if !slices.Equal(sc.races, osc.races) || !slices.Equal(pg.clk, og.clk) {
					t.Fatalf("%s %v: ghost %+v has races %v clock %v, reference %v %v",
						j.name, sched, g.acc, sc.races, pg.clk, osc.races, og.clk)
				}
				for _, k := range osc.races {
					cfg.addBacktrack(osc, k, m, &og, &wantComp)
				}
			}
		}
		if got := depthMaskSet(rep.Comp); len(got) != len(rep.Comp) {
			t.Fatalf("%s %v: compensation list %v has duplicates", j.name, sched, rep.Comp)
		}
		if got, want := depthMaskSet(rep.Comp), depthMaskSet(wantComp); !slices.Equal(got, want) {
			t.Fatalf("%s %v: compensation %v, reference %v", j.name, sched, got, want)
		}
	}
}

// classMicroProgram draws a small straight-line program over two bits
// and one packed 4-bit word accessed through overlapping field views
// (the whole word, [0:2), [1:3), [2:4) and single-bit fields), with
// marks, outputs, local steps and data-dependent early exits.
func classMicroProgram(rng *rand.Rand) Builder {
	nprocs := 2 + rng.Intn(2)
	type instr struct{ kind, view, val int }
	progs := make([][]instr, nprocs)
	for pid := range progs {
		prog := make([]instr, 2+rng.Intn(5))
		for i := range prog {
			prog[i] = instr{kind: rng.Intn(9), view: rng.Intn(8), val: rng.Intn(16)}
		}
		progs[pid] = prog
	}
	return func() (*sim.Memory, []sim.ProcFunc, error) {
		mem := sim.NewMemory(opset.RMW.With(opset.ReadWord, opset.WriteWord))
		w := mem.Register("w", 4)
		views := []sim.Reg{
			mem.Bit("b0"), mem.Bit("b1"), w,
			mem.Field(w, 0, 2), mem.Field(w, 1, 2), mem.Field(w, 2, 2),
			mem.Field(w, 0, 1), mem.Field(w, 3, 1),
		}
		procs := make([]sim.ProcFunc, nprocs)
		for pid, prog := range progs {
			procs[pid] = func(p *sim.Proc) {
				var acc uint64
				for _, in := range prog {
					r := views[in.view]
					wide := !r.IsBit()
					switch in.kind {
					case 0:
						acc = p.Read(r)
					case 1:
						p.Write(r, uint64(in.val)&(1<<r.Width()-1))
					case 2:
						p.Write(r, acc&(1<<r.Width()-1))
					case 3:
						if wide {
							acc = p.Read(r)
						} else {
							acc = p.TestAndSet(r)
						}
					case 4:
						if wide {
							p.Skip(r)
						} else if in.val&1 == 0 {
							acc = p.TestAndFlip(r)
						} else {
							p.Flip(r)
						}
					case 5:
						p.Local()
					case 6:
						p.Mark(sim.Phase(1 + in.val%4))
					case 7:
						p.Output(acc)
					case 8:
						if acc != 0 {
							p.Output(uint64(in.val))
							return
						}
					}
				}
			}
		}
		return mem, procs, nil
	}
}

// TestDPORClassIndexMatchesFullScan replays the wave tasks of fuzz-style
// micro-programs (overlapping packed-word views) and of the n=2
// portfolio through the class-indexed analysis, and requires the
// entries, every clock, the arriving step's races, each ghost's races
// and clock, and the Masks/Comp registration sets to equal the
// full-scan reference's.
func TestDPORClassIndexMatchesFullScan(t *testing.T) {
	noProp := func(*sim.Trace) error { return nil }
	var jobs []classJob
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 24; i++ {
		jobs = append(jobs, classJob{
			name:  "micro-" + strconv.Itoa(i),
			build: classMicroProgram(rng),
			prop:  noProp,
			opts:  Options{MaxDepth: 48, MaxStates: 2000, DPOR: true, ExploreCrashes: i%3 == 0},
		})
	}
	for _, alg := range []mutex.Algorithm{
		mutex.Peterson{}, mutex.Kessels{}, mutex.Lamport{}, mutex.PackedLamport{},
		mutex.TASLock{}, mutex.Tournament{L: 1}, mutex.Tournament{L: 2},
	} {
		jobs = append(jobs, classJob{
			name:  "mutex/" + alg.Name(),
			build: symMutexBuild(alg, 2),
			prop:  metrics.CheckMutualExclusion,
			opts:  Options{MaxDepth: 120, CollapseSpins: true, DPOR: true, Symmetry: true},
		})
	}
	for _, det := range []contention.Detector{contention.Splitter{}, contention.ChunkedSplitter{L: 1}} {
		jobs = append(jobs, classJob{
			name: "detection/" + det.Name(),
			build: symTaskBuild(det.Model(), 2, func(mem *sim.Memory) (driver.TaskRunner, error) {
				return det.New(mem, 2)
			}),
			prop: func(tr *sim.Trace) error { return metrics.CheckDetection(tr, false) },
			opts: Options{MaxDepth: 80, CollapseSpins: true, ExploreCrashes: true, DPOR: true, Symmetry: true},
		})
	}
	for _, alg := range []naming.Algorithm{naming.TAFTree{}, naming.TASScan{}} {
		jobs = append(jobs, classJob{
			name: "naming/" + alg.Name(),
			build: symTaskBuild(alg.Model(), 2, func(mem *sim.Memory) (driver.TaskRunner, error) {
				return alg.New(mem, 2)
			}),
			prop: metrics.CheckUniqueOutputs,
			opts: Options{
				MaxDepth: 100, CollapseSpins: true, ExploreCrashes: true,
				ExpectTermination: true, DPOR: true, Symmetry: true,
			},
		})
	}
	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) { checkClassIndex(t, j, rng) })
	}
}
