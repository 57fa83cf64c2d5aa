package bench

import (
	"strconv"
	"testing"
)

// TestTable3EditBytesScaleWithChange pins table 3's mechanism as counts: a
// migration ships control bytes in proportion to what it moves, not to the
// template. At quick scale with 1 ns tasks and no link latency, the
// instantiation that carries a one-partition migration's edits ships at
// most 1% of a complete install's control bytes over a steady one, and a
// 5% migration at most 5%. It reads controller.Stats.BytesToWorkers
// through Table3 and checks no timing.
func TestTable3EditBytesScaleWithChange(t *testing.T) {
	s := Quick()
	s.TaskDur, s.ReduceDur, s.Latency = 1, 1, 0
	tbl, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	bytes := func(row int) float64 {
		t.Helper()
		b, err := strconv.ParseFloat(tbl.Rows[row][2], 64)
		if err != nil {
			t.Fatalf("row %q: %v", tbl.Rows[row], err)
		}
		return b
	}
	one, five, install := bytes(0), bytes(1), bytes(2)
	t.Logf("control bytes: single edit %.0f, 5%% migration %.0f, complete install %.0f", one, five, install)
	if install == 0 {
		t.Fatal("the complete install shipped no control bytes")
	}
	if one > 0.01*install {
		t.Errorf("a one-partition migration shipped %.0f bytes, over 1%% of the %.0f-byte install", one, install)
	}
	if five > 0.05*install {
		t.Errorf("a 5%% migration shipped %.0f bytes, over 5%% of the %.0f-byte install", five, install)
	}
}
