package balance

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/transform"
)

// TestPassDeltasChain: the pass deltas of fig7 and fig8 start from the
// caller's profiled base report and chain snapshot to snapshot, so
// they account for the whole before→after change, and they equal the
// deltas from an explicitly re-profiled base.
func TestPassDeltasChain(t *testing.T) {
	ctx := context.Background()
	spec := machine.Origin2000()
	for _, k := range []struct {
		name string
		p    *ir.Program
	}{
		{"fig7", kernels.Fig7Original(4096)},
		{"fig8", kernels.Fig8Workload(4096)},
	} {
		t.Run(k.name, func(t *testing.T) {
			q, out, err := transform.OptimizeVerifiedCtx(ctx, k.p, transform.Config{
				Options: transform.All(), SnapshotPasses: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Snapshots) == 0 {
				t.Fatal("no pass committed a snapshot")
			}
			snaps := make([]ProgramSnapshot, len(out.Snapshots))
			for i, s := range out.Snapshots {
				snaps[i] = ProgramSnapshot{Pass: s.Pass, Program: s.Program}
			}
			plan := Plan{Machines: []machine.Spec{spec}, Bounds: BoundsFull, Profile: true, MRC: true}
			before, err := Primary(Measure(ctx, k.p, plan, exec.Limits{}))
			if err != nil {
				t.Fatal(err)
			}
			after, err := Primary(Measure(ctx, q, plan, exec.Limits{}))
			if err != nil {
				t.Fatal(err)
			}
			ds, err := PassDeltas(ctx, before, snaps, spec, exec.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ds) != len(snaps) {
				t.Fatalf("%d deltas for %d snapshots", len(ds), len(snaps))
			}
			if ds[0].MemoryBefore != before.MemoryBytes {
				t.Fatalf("first delta starts at %d B, base measured %d B", ds[0].MemoryBefore, before.MemoryBytes)
			}
			if last := ds[len(ds)-1]; last.MemoryAfter != after.MemoryBytes {
				t.Fatalf("last delta ends at %d B, optimized measured %d B", last.MemoryAfter, after.MemoryBytes)
			}
			for i := 1; i < len(ds); i++ {
				if ds[i-1].MemoryAfter != ds[i].MemoryBefore {
					t.Fatalf("delta %d ends at %d B, delta %d starts at %d B",
						i-1, ds[i-1].MemoryAfter, i, ds[i].MemoryBefore)
				}
			}

			base, err := Primary(Measure(ctx, k.p, Plan{Machines: []machine.Spec{spec}, Profile: true}, exec.Limits{}))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := PassDeltas(ctx, base, snaps, spec, exec.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ds, ref) {
				t.Fatalf("deltas from the caller's report %+v != from a re-profiled base %+v", ds, ref)
			}

			plain, err := Primary(Measure(ctx, k.p, Plan{Machines: []machine.Spec{spec}}, exec.Limits{}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := PassDeltas(ctx, plain, snaps, spec, exec.Limits{}); err == nil {
				t.Fatal("pass deltas accepted an unprofiled base report")
			}
		})
	}
}
