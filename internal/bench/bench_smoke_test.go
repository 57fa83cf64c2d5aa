package bench

import (
	"strconv"
	"testing"
	"time"
)

// smokeScale is a minimal configuration so every experiment runs in CI
// time.
func smokeScale() Scale {
	s := Quick()
	s.Workers = []int{2, 4}
	s.Fig1Workers = []int{2, 4}
	s.Tasks = 16
	s.ReduceFan = 4
	s.Iterations = 2
	s.TaskDur = 500 * time.Microsecond
	s.ReduceDur = 100 * time.Microsecond
	s.WaterWorkers = 2
	s.WaterParts = 4
	s.WaterGridDur = 200 * time.Microsecond
	s.WaterSubsteps, s.WaterReinit, s.WaterJacobi, s.WaterFrames = 1, 1, 2, 1
	s.FrontDoorSessions = []int{64}
	s.FrontDoorLoopIters = 10
	s.FleetGrowTo = 8
	s.FleetPoints = 50
	s.FleetSimWorkers = 8
	return s
}

// TestEveryExperimentRuns executes the experiment runners end to end at
// smoke scale, asserting they produce rows.
func TestEveryExperimentRuns(t *testing.T) {
	runners := map[string]func(Scale) (*Table, error){
		"fig1": Fig1, "table1": Table1, "table2": Table2, "table3": Table3,
		"fig7": Fig7, "fig8": Fig8, "fig9": Fig9, "fig10": Fig10, "fig11": Fig11,
		"frontdoor": FrontDoor, "fleet": Fleet,
	}
	s := smokeScale()
	for name, run := range runners {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			tbl, err := run(s)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", name)
			}
			if tbl.Format() == "" {
				t.Fatalf("%s formats empty", name)
			}
		})
	}
}

// Table 1's untemplated scheduling cost is measured, not injected: a huge
// NimbusPerTask shows up only in the paper-modelled column.
func TestTable1MeasuresUntemplatedScheduling(t *testing.T) {
	s := smokeScale()
	s.NimbusPerTask = 10 * time.Millisecond
	tbl, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[0] != "Nimbus schedule task (no templates)" {
			continue
		}
		measured, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if measured >= 1000 {
			t.Errorf("measured untemplated scheduling cost %vus, want under 1ms", measured)
		}
		if len(row) < 3 {
			t.Fatalf("row %q has no paper-modelled cell", row)
		}
		if modelled, err := strconv.ParseFloat(row[2], 64); err != nil || modelled != 10000 {
			t.Errorf("paper-modelled cell %q, want 10000", row[2])
		}
		return
	}
	t.Fatalf("table1 has no untemplated scheduling row:\n%s", tbl.Format())
}
