package proto

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current codec")

const goldenPath = "testdata/wire.golden"

// goldenFrames is what the golden file pins: Marshal of every everyMessage
// row under its kind name, and one batch frame of ten messages, every
// sixth row.
func goldenFrames() [][2]string {
	msgs := everyMessage()
	var rows [][2]string
	for _, m := range msgs {
		rows = append(rows, [2]string{m.Kind().String(), hex.EncodeToString(Marshal(m))})
	}
	var batch []Msg
	for i := 0; len(batch) < 10; i += 6 {
		batch = append(batch, msgs[i])
	}
	return append(rows, [2]string{fmt.Sprintf("batch-of-%d", len(batch)), hex.EncodeToString(AppendBatch(nil, batch))})
}

// TestWireGolden holds every wire byte still: the file was generated before
// the codec was rewritten around one field walk per message, and a change to
// the codec that moves a byte of any kind, or of the batch framing, fails
// here. A deliberate format change regenerates it with
// `go test ./internal/proto/ -run TestWireGolden -update`.
func TestWireGolden(t *testing.T) {
	got := goldenFrames()
	if *updateGolden {
		var b bytes.Buffer
		for _, r := range got {
			fmt.Fprintf(&b, "%s %s\n", r[0], r[1])
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	i := 0
	for ; sc.Scan(); i++ {
		name, frame, _ := strings.Cut(sc.Text(), " ")
		if i >= len(got) {
			t.Fatalf("golden row %d (%s) has no message: everyMessage shrank", i, name)
		}
		if got[i][0] != name {
			t.Fatalf("row %d is %s, golden has %s", i, got[i][0], name)
		}
		if got[i][1] != frame {
			t.Errorf("%s encodes as\n  %s\ngolden\n  %s", name, got[i][1], frame)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(got) {
		t.Fatalf("golden has %d rows, the codec produces %d: regenerate with -update", i, len(got))
	}
}
