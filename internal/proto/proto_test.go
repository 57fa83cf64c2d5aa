package proto

import (
	"reflect"
	"testing"

	"nimbus/internal/command"
	"nimbus/internal/ids"
	"nimbus/internal/params"
)

// everyMessage returns one populated instance of each message type.
func everyMessage() []Msg {
	return []Msg{
		&RegisterWorker{DataAddr: "data/1", Slots: 8},
		&RegisterWorkerAck{Worker: 3, Peers: map[ids.WorkerID]string{1: "a", 2: "b"}, Eager: true},
		&RegisterDriver{Name: "drv", Weight: 2, Tenant: "acme", Priority: 3},
		&RegisterDriverAck{Job: 2},
		&JobEnd{Job: 2},
		&JobQuota{Job: 2, Slots: 4},
		&DefineVariable{Var: 4, Name: "x", Partitions: 16},
		&Put{Var: 4, Partition: 2, Data: []byte{1, 2, 3}},
		&Get{Seq: 9, Var: 4, Partition: 1},
		&GetResult{Seq: 9, Data: []byte{7}},
		&SubmitStage{
			Stage: 5, Fn: 6, Tasks: 8,
			Refs: []VarRef{
				{Var: 4, Pattern: OnePerTask},
				{Var: 5, Write: true, Pattern: Shared},
				{Var: 6, Pattern: Stencil, Fixed: 1},
			},
			Params:  params.Blob{1},
			PerTask: []params.Blob{{2}, {3}},
		},
		&TemplateStart{Name: "blk"},
		&TemplateEnd{Name: "blk"},
		&InstantiateBlock{Name: "blk", ParamArray: []params.Blob{{4}, nil}},
		&InstantiateWhile{
			Seq: 21, Name: "blk",
			Pred:     Pred{Var: 4, Partition: 1, Op: PredGE, Threshold: 0.125},
			MaxIters: 30, ParamArray: []params.Blob{{6}},
		},
		&LoopDone{Seq: 21, Iters: 7, LastValue: 0.0625, Err: "bad loop"},
		&Barrier{Seq: 11},
		&BarrierDone{Seq: 11, Applied: 7, Err: "ckpt 2 failed"},
		&CheckpointReq{Seq: 12},
		&Shutdown{},
		&SpawnCommands{Barrier: true, Cmds: []*command.Command{
			{ID: 1, Kind: command.Task, Function: 2, Reads: []ids.ObjectID{3}},
		}},
		&InstallTemplate{Template: 7, Name: "blk", Entries: []command.TemplateEntry{
			{Index: 0, Kind: command.Task, Function: 1, ParamSlot: command.NoParamSlot},
		}},
		&InstantiateTemplate{
			Template: 7, Instance: 2, Base: 1000,
			ParamArray: []params.Blob{{9}},
			Edits: []command.Edit{{
				Remove: []int32{1},
				Add:    []command.TemplateEntry{{Index: 2, Kind: command.Task, ParamSlot: command.NoParamSlot}},
			}},
			DoneWatermark: 900,
		},
		&InstallPatch{Patch: 8, Entries: []command.TemplateEntry{
			{Index: 0, Kind: command.CopySend, DstWorker: 2, DstIdx: 1, ParamSlot: command.NoParamSlot},
		}},
		&InstantiatePatch{Patch: 8, Base: 2000},
		&Complete{Worker: 2, IDs: []ids.CommandID{5, 6}},
		&BlockDone{Worker: 2, Instance: 3},
		&Heartbeat{Worker: 2, Pending: 4, Done: 100},
		&FetchObject{Seq: 13, Object: 44},
		&ObjectData{Seq: 13, Object: 44, Version: 2, Data: []byte{5}},
		&Halt{Seq: 14},
		&HaltAck{Seq: 14, Worker: 2},
		&Resume{},
		&DataPayload{DstCommand: 77, Object: 44, Logical: 9, Version: 2, Data: []byte{6}},
		&DataChunk{
			Job: 2, Xfer: 31, Seq: 4, Last: true, Flags: ChunkFetch,
			DstCommand: 77, Object: 44, Logical: 9, Version: 2, Fetch: 13,
			Total: 1 << 20, Raw: []byte{1, 2, 3},
		},
		&DataCredit{Xfer: 31, Chunks: 8},
		&XferAbort{Xfer: 31, Reason: "seq gap"},
		&SaveFailed{Job: 4, Ckpt: 2, Logical: 9, Err: "no space left on device"},
		&ErrorMsg{Text: "boom"},
		&ReplAttach{},
		&ReplSnapshot{
			JobSeq: 3, NextWorker: 5, Workers: []ids.WorkerID{1, 2},
			Jobs: []*ReplJob{{
				Job: 2, Name: "drv", Weight: 1, Tenant: "acme", Applied: 17, Ckpt: 2, CkptCount: 3,
				Manifest: []ManifestEntry{{Logical: 4, Version: 9}},
				Defs:     [][]byte{{byte(KindDefineVariable), 1}},
				Oplog:    [][]byte{{byte(KindPut), 2}, {byte(KindInstantiateBlock), 3}},
				NextCmd:  900, NextObj: 120,
			}},
		},
		&ReplOp{Job: 2, Index: 18, NextCmd: 910, NextObj: 121, Raw: []byte{byte(KindPut), 4, 1}},
		&ReplAck{Job: 2, Index: 18},
		&ReplCkpt{Job: 2, Ckpt: 3, Count: 4, Drop: 12, Manifest: []ManifestEntry{{Logical: 5, Version: 10}}},
		&ReplJobStart{Job: 3, Name: "late", Weight: 2, Tenant: "acme"},
		&ReplJobEnd{Job: 3},
		&LeaseRenew{Epoch: 1, TTLMillis: 500},
		&RegisterWorker{Worker: 2, DataAddr: "data/2", Slots: 8},
		&DriverReattach{Job: 2, Name: "drv", Weight: 1},
		&ReattachAck{Job: 2, Applied: 18, Ok: true, Err: "none"},
		&GatewayHello{},
		&MuxData{Session: 5, Seq: 9, Raw: []byte{byte(KindPut), 1, 2}},
		&SessionClose{Session: 5},
		&AdmissionReject{Code: RejectQueueFull, RetryAfterMillis: 250, Err: "admission queue full"},
		&FleetWarm{Seq: 3},
		&FleetWarmAck{Worker: 9, Seq: 3},
		&FleetReady{Worker: 9},
		&FleetDrain{Worker: 9},
		&FleetDecommission{Worker: 9},
	}
}

// TestEveryMessageRoundTrips marshals and unmarshals one instance of every
// message kind, verifying full fidelity.
func TestEveryMessageRoundTrips(t *testing.T) {
	for _, m := range everyMessage() {
		raw := Marshal(m)
		got, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s round trip mismatch:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

// TestAllKindsCovered ensures every kind below KindMax has a row in the
// kinds table — a name, and a constructor for a message of that kind — and
// that everyMessage covers it.
func TestAllKindsCovered(t *testing.T) {
	seen := make(map[MsgKind]bool)
	for _, m := range everyMessage() {
		seen[m.Kind()] = true
	}
	for k := KindRegisterWorker; k < KindMax; k++ {
		if kinds[k].name == "" {
			t.Errorf("message kind %d has no name in the kinds table", k)
		}
		if m := newMsg(k); m == nil {
			t.Errorf("message kind %s has no constructor in the kinds table", k)
			continue
		} else if m.Kind() != k {
			t.Errorf("kinds[%s] constructs a %s", k, m.Kind())
		}
		if !seen[k] {
			t.Errorf("message kind %s not covered by round-trip test", k)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := Unmarshal([]byte{0xff}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("expected error for empty buffer")
	}
}

func TestTruncatedMessage(t *testing.T) {
	raw := Marshal(&SubmitStage{Stage: 1, Fn: 2, Tasks: 3, Refs: []VarRef{{Var: 1}}})
	for cut := 1; cut < len(raw); cut++ {
		if _, err := Unmarshal(raw[:cut]); err == nil {
			// Some prefixes decode cleanly (trailing fields default); that
			// is acceptable as long as no panic occurs.
			continue
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindRegisterWorker; k < KindMax; k++ {
		if s := k.String(); s == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}
