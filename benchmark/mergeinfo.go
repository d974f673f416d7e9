package main

import "hyrise"

// mergePhases is the merge work of one traced window: how many merges,
// what they moved, and the wall time of the three phases of §3.
type mergePhases struct {
	merges, rowsMerged, rowsReclaimed float64
	freeze, run, commit, wall         float64 // seconds
}

func phasesOf(reports []hyrise.MergeReport) mergePhases {
	var p mergePhases
	for _, r := range reports {
		p.merges++
		p.rowsMerged += float64(r.RowsMerged)
		p.rowsReclaimed += float64(r.RowsReclaimed)
		p.freeze += r.Freeze.Seconds()
		p.run += r.MergeRun.Seconds()
		p.commit += r.Commit.Seconds()
		p.wall += r.Wall.Seconds()
	}
	return p
}

// put reports the phases; window is the traced wall time they fell in.
func (p mergePhases) put(ms metricSet, window float64) {
	ms.put("core.merges", p.merges)
	ms.put("core.rows_merged", p.rowsMerged)
	ms.put("core.rows_reclaimed", p.rowsReclaimed)
	ms.put("table.merge_freeze_s", p.freeze)
	ms.put("table.merge_run_s", p.run)
	ms.put("table.merge_commit_s", p.commit)
	ms.put("table.merge_wall_s", p.wall)
	ms.put("table.merge_wall_share", p.wall/window)
}

// putColumnSteps reports what only an in-process merge report carries:
// the per-step column times of §5 summed over columns and merges, and
// the merge's cost and rate per tuple, a tuple being one value of one
// column, (N_M+N_D)·N_C per merge.
func putColumnSteps(ms metricSet, reports []hyrise.MergeReport) {
	var s1a, s1b, s2, wall, tuples float64
	for _, r := range reports {
		wall += r.Wall.Seconds()
		for _, c := range r.Columns {
			s1a += c.Step1a.Seconds()
			s1b += c.Step1b.Seconds()
			s2 += c.Step2.Seconds()
			tuples += float64(c.NM + c.ND)
		}
	}
	ms.put("core.step1a_s", s1a)
	ms.put("core.step1b_s", s1b)
	ms.put("core.step2_s", s2)
	if tuples == 0 || wall == 0 {
		ms.put("core.ns_per_tuple", 0)
		ms.put("core.merge_mtuples_per_s", 0)
		return
	}
	ms.put("core.ns_per_tuple", wall*1e9/tuples)
	ms.put("core.merge_mtuples_per_s", tuples/wall/1e6)
}
