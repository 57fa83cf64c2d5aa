package command

import (
	"reflect"
	"testing"
	"testing/quick"

	"nimbus/internal/ids"
	"nimbus/internal/params"
	"nimbus/internal/wire"
)

func sampleCommand() *Command {
	return &Command{
		ID: 42, Kind: CopySend, Function: 7,
		Reads:     []ids.ObjectID{1, 2},
		Writes:    []ids.ObjectID{3},
		Before:    []ids.CommandID{40, 41},
		Params:    params.Blob{9, 9, 9},
		DstWorker: 5, DstCommand: 43,
		Logical: 11, Version: 3,
	}
}

// roundTrip runs src's walk encoding, then dst's walk decoding the bytes.
func roundTrip(src, dst interface{ Fields(*wire.Coder) }) error {
	var enc wire.Coder
	src.Fields(&enc)
	dec := wire.Coder{Decoding: true, R: wire.Reader{Buf: enc.W.Buf}}
	dst.Fields(&dec)
	return dec.R.Err
}

func TestCommandRoundTrip(t *testing.T) {
	c := sampleCommand()
	var got Command
	if err := roundTrip(c, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(c, &got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, *c)
	}
}

func TestCommandClone(t *testing.T) {
	c := sampleCommand()
	d := c.Clone()
	d.Reads[0] = 99
	d.Before[0] = 99
	if c.Reads[0] == 99 || c.Before[0] == 99 {
		t.Fatal("clone shares slices")
	}
}

func TestKindString(t *testing.T) {
	for k := Task; k <= Load; k++ {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Fatalf("kind %d has no name: %q", k, s)
		}
	}
}

func TestEntryMaterialize(t *testing.T) {
	e := &TemplateEntry{
		Index: 3, Kind: CopySend, Function: 9,
		Reads:     []ids.ObjectID{10},
		BeforeIdx: []int32{1, 2},
		ParamSlot: 1,
		Fixed:     params.Blob{1},
		DstWorker: 4, DstIdx: 5,
	}
	var c Command
	arr := []params.Blob{{7}, {8}}
	e.Materialize(100, arr, &c)
	if c.ID != 103 {
		t.Fatalf("id = %v", c.ID)
	}
	if len(c.Before) != 2 || c.Before[0] != 101 || c.Before[1] != 102 {
		t.Fatalf("before = %v", c.Before)
	}
	if c.DstCommand != 105 {
		t.Fatalf("dst = %v", c.DstCommand)
	}
	if len(c.Params) != 1 || c.Params[0] != 8 {
		t.Fatalf("params = %v (want slot 1)", c.Params)
	}
	// Without a parameter array the cached Fixed blob applies.
	e.Materialize(100, nil, &c)
	if len(c.Params) != 1 || c.Params[0] != 1 {
		t.Fatalf("params = %v (want fixed)", c.Params)
	}
}

// Property: entry wire round trip preserves everything.
func TestQuickEntryRoundTrip(t *testing.T) {
	f := func(idx int32, fnID uint32, reads []uint64, before []int32, slot int32, fixed []byte) bool {
		e := TemplateEntry{
			Index: idx & 0x7fffffff, Kind: Task,
			Function:  ids.FunctionID(fnID),
			ParamSlot: slot,
			Fixed:     params.Blob(fixed),
		}
		for _, r := range reads {
			e.Reads = append(e.Reads, ids.ObjectID(r))
		}
		e.BeforeIdx = append(e.BeforeIdx, before...)
		var got TemplateEntry
		if err := roundTrip(&e, &got); err != nil {
			return false
		}
		if got.Index != e.Index || got.Function != e.Function || got.ParamSlot != e.ParamSlot {
			return false
		}
		if len(got.Reads) != len(e.Reads) || len(got.BeforeIdx) != len(e.BeforeIdx) {
			return false
		}
		if len(got.Fixed) != len(e.Fixed) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEditRoundTrip(t *testing.T) {
	e := Edit{
		Remove: []int32{1, 5},
		Add: []TemplateEntry{
			{Index: 9, Kind: Task, Function: 3, ParamSlot: NoParamSlot},
		},
	}
	var got Edit
	if err := roundTrip(&e, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Remove) != 2 || got.Remove[1] != 5 || len(got.Add) != 1 || got.Add[0].Index != 9 {
		t.Fatalf("edit mismatch: %+v", got)
	}
}
