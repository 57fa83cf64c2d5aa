package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"nimbus/internal/command"
	"nimbus/internal/core"
	"nimbus/internal/datastore"
	"nimbus/internal/flow"
	"nimbus/internal/ids"
	"nimbus/internal/proto"
	"nimbus/internal/stream"
	"nimbus/internal/transport"
)

// Probes time public functions of one layer in isolation, after the
// measured phase, on inputs taken from the workload: its stage specs, the
// frames the wrapper captured, its transport. Each returns a mean over a
// fixed repetition count.

// timeIt returns the mean duration of reps calls of f.
func timeIt(reps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

// us and ns convert a duration for reporting.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ns(d time.Duration) float64 { return float64(d) }

// probeTransport measures the workload's transport on its own: a 64-byte
// ping-pong, a windowed stream of 256 KiB frames, and (always over a bare
// loopback socket) what io.Copy reaches, the ceiling for the TCP numbers.
func probeTransport(res *result, tcp bool, trips, streamBytes int) error {
	var tr transport.Transport = transport.NewMem(0)
	addr := "bench/probe"
	if tcp {
		ports, err := freePorts(1)
		if err != nil {
			return err
		}
		tr, addr = transport.TCP{}, ports[0]
	}
	lis, err := tr.Listen(addr)
	if err != nil {
		return err
	}
	defer lis.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cli, err := tr.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	srv, ok := <-accepted
	if !ok {
		return fmt.Errorf("transport probe: accept failed")
	}
	defer srv.Close()

	// The server echoes small frames and acknowledges every 16th large
	// one, which is the window the client streams under: an unbounded Mem
	// queue would otherwise hold the whole stream.
	const frame, window = stream.DefaultChunkSize, 16
	srvErr := make(chan error, 1)
	go func() {
		large := 0
		for {
			b, err := srv.Recv()
			if err != nil {
				srvErr <- nil
				return
			}
			n := len(b)
			proto.PutBuf(b)
			if n >= frame {
				if large++; large%window != 0 {
					continue
				}
			}
			if err := srv.Send(make([]byte, 64)); err != nil {
				srvErr <- err
				return
			}
		}
	}()
	ping := make([]byte, 64)
	start := time.Now()
	for i := 0; i < trips; i++ {
		if err := cli.Send(ping); err != nil {
			return err
		}
		b, err := cli.Recv()
		if err != nil {
			return err
		}
		proto.PutBuf(b)
	}
	res.set("transport.probe.rtt_us", us(time.Since(start))/float64(trips), "us")

	frames := streamBytes / frame / window * window
	buf := make([]byte, frame)
	start = time.Now()
	for i := 1; i <= frames; i++ {
		if err := cli.Send(buf); err != nil {
			return err
		}
		if i%window == 0 && i >= 2*window {
			// Keep up to two windows in flight.
			if _, err := cli.Recv(); err != nil {
				return err
			}
		}
	}
	if _, err := cli.Recv(); err != nil { // the last window's acknowledgement
		return err
	}
	res.set("transport.probe.stream_mb_per_s", float64(frames*frame)/1e6/time.Since(start).Seconds(), "MB/s")
	cli.Close()
	if err := <-srvErr; err != nil {
		return err
	}

	raw, err := rawTCP(streamBytes)
	if err != nil {
		return err
	}
	res.set("transport.probe.raw_tcp_mb_per_s", raw, "MB/s")
	return nil
}

// rawTCP copies total bytes over a bare loopback socket and returns MB/s.
func rawTCP(total int) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	got := make(chan int64, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			got <- -1
			return
		}
		defer c.Close()
		n, _ := io.Copy(io.Discard, c)
		got <- n
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, stream.DefaultChunkSize)
	start := time.Now()
	for sent := 0; sent < total; sent += len(buf) {
		if _, err := c.Write(buf); err != nil {
			c.Close()
			return 0, err
		}
	}
	c.Close()
	if n := <-got; n < int64(total) {
		return 0, fmt.Errorf("raw tcp probe: received %d of %d bytes", n, total)
	}
	return float64(total) / 1e6 / time.Since(start).Seconds(), nil
}

// probeCodec replays the frames of one captured steady iteration through
// proto.ForEachMsg and proto.AppendBatch, and times the steady-state
// instantiation message, a template install and a data chunk on their own.
func probeCodec(res *result, frames []capturedFrame, install *proto.InstallTemplate, reps int) error {
	if len(frames) == 0 {
		return fmt.Errorf("codec probe: the wrapper captured no frames")
	}
	msgs := make([][]proto.Msg, len(frames))
	var instantiate []byte
	for i, f := range frames {
		err := proto.ForEachMsg(f.raw, func(m proto.Msg) error {
			msgs[i] = append(msgs[i], m)
			return nil
		})
		if err != nil {
			return fmt.Errorf("codec probe: captured %s frame does not decode: %w", linkNames[f.link], err)
		}
		if proto.MsgKind(f.raw[0]) == proto.KindInstantiateTemplate {
			instantiate = f.raw
		}
	}
	if instantiate == nil {
		return fmt.Errorf("codec probe: no bare instantiate-template frame among %d captured", len(frames))
	}
	keep := func(proto.Msg) error { return nil }
	res.set("proto.unmarshal_ns_per_iter", ns(timeIt(reps, func() {
		for _, f := range frames {
			_ = proto.ForEachMsg(f.raw, keep)
		}
	})), "ns")
	res.set("proto.marshal_ns_per_iter", ns(timeIt(reps, func() {
		for _, ms := range msgs {
			proto.PutBuf(proto.AppendBatch(proto.GetBuf(), ms))
		}
	})), "ns")

	const small = 20000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := timeIt(small, func() { _, _ = proto.Unmarshal(instantiate) })
	runtime.ReadMemStats(&m1)
	res.set("proto.unmarshal_instantiate_ns", ns(d), "ns")
	res.set("proto.unmarshal_instantiate_allocs", float64(m1.Mallocs-m0.Mallocs)/small, "count")

	entries := float64(len(install.Entries))
	raw := proto.Marshal(install)
	res.set("proto.marshal_install_ns_per_entry", ns(timeIt(200, func() {
		proto.PutBuf(proto.MarshalAppend(proto.GetBuf(), install))
	}))/entries, "ns")
	res.set("proto.unmarshal_install_ns_per_entry", ns(timeIt(200, func() { _, _ = proto.Unmarshal(raw) }))/entries, "ns")

	chunk := &proto.DataChunk{Job: 1, Xfer: 1, Total: 2 * stream.DefaultChunkSize, Raw: make([]byte, stream.DefaultChunkSize)}
	raw = proto.Marshal(chunk)
	res.set("proto.marshal_chunk_us", us(timeIt(500, func() {
		proto.PutBuf(proto.MarshalAppend(proto.GetBuf(), chunk))
	})), "us")
	res.set("proto.unmarshal_chunk_us", us(timeIt(500, func() { _, _ = proto.Unmarshal(raw) })), "us")
	return nil
}

// planned is the workload's block built by core over a static placement:
// what the controller builds, without a controller.
type planned struct {
	place   *core.StaticPlacement
	dir     *flow.Directory
	tmpl    *core.Template
	a       *core.Assignment
	ledgers map[ids.WorkerID]*flow.Ledger
}

func planBlock(b *block) (*planned, error) {
	p := &planned{place: core.NewStaticPlacement(numWorkers), ledgers: map[ids.WorkerID]*flow.Ledger{}}
	for i, v := range b.vars {
		p.place.Define(ids.VariableID(i+1), v.parts)
	}
	var alloc ids.ObjectIDs
	p.dir = flow.NewDirectory(&alloc)
	p.tmpl = &core.Template{ID: 1, Name: b.name, Stages: b.stages}
	a, err := core.BuildAssignment(1, p.dir, p.place, b.stages, 0)
	if err != nil {
		return nil, err
	}
	p.a = a
	for w := 1; w <= numWorkers; w++ {
		p.ledgers[ids.WorkerID(w)] = flow.NewLedger(ids.WorkerID(w))
	}
	// Make every precondition hold, as after a first execution.
	for _, pc := range a.Preconds {
		if p.dir.Latest(pc.Logical) == 0 {
			p.dir.RecordWrite(pc.Logical, pc.Worker)
		} else if !p.dir.IsLatest(pc.Logical, pc.Worker) {
			p.dir.RecordCopy(pc.Logical, pc.Worker)
		}
	}
	return p, nil
}

// probeCore times core and command on the workload's own block: a build,
// steady validation and effects, then the churn_mem-sized migration (5% of
// the first variable's partitions to one worker) rebuilt, diffed and
// patched.
func probeCore(res *result, b *block) (*planned, error) {
	p, err := planBlock(b)
	if err != nil {
		return nil, err
	}
	const reps = 20
	res.set("core.build_us_per_task", us(timeIt(reps, func() {
		_, err = core.BuildAssignment(1, p.dir, p.place, b.stages, 0)
	}))/float64(b.tasksPerIter()), "us")
	if err != nil {
		return nil, err
	}
	res.set("core.validate_us", us(timeIt(200, func() { _ = p.a.Validate(p.dir) })), "us")
	base := ids.CommandID(1 << 20)
	res.set("core.apply_effects_us", us(timeIt(200, func() {
		p.a.ApplyEffects(base, p.dir, p.ledgers)
		base += ids.CommandID(p.a.MaxIndex())
	})), "us")

	w1 := p.a.PerWorker[1]
	entries := make([]*command.TemplateEntry, len(w1))
	for i, idx := range w1 {
		entries[i] = &p.a.Entries[idx]
	}
	var ct *command.CompiledTemplate
	res.set("command.compile_us_per_entry", us(timeIt(reps, func() { ct = command.Compile(entries) }))/float64(len(entries)), "us")
	out := make([]command.Command, len(ct.Entries))
	res.set("command.materialize_ns_per_cmd", ns(timeIt(2000, func() {
		for i := range ct.Entries {
			ct.Entries[i].MaterializeInto(base, nil, &out[i])
		}
	}))/float64(len(ct.Entries)), "ns")

	// Move 5% of the first variable (and of every other variable with as
	// many partitions, as churn_mem moves data and gradient together).
	parts := b.vars[0].parts
	moved := (parts + 19) / 20
	for i, v := range b.vars {
		if v.parts != parts {
			continue
		}
		for q := 0; q < moved; q++ {
			part := q * (parts / moved)
			p.place.Reassign(ids.VariableID(i+1), part, ids.WorkerID(1+(part+1)%numWorkers))
		}
	}
	next, err := p.tmpl.Rebuild(1, p.dir, p.place, p.a)
	if err != nil {
		return nil, err
	}
	res.set("core.diff_us", us(timeIt(reps, func() { _ = core.Diff(p.a, next) })), "us")
	viols := next.Validate(p.dir)
	if len(viols) == 0 {
		return nil, fmt.Errorf("core probe: migrating %d partitions violated no precondition", moved)
	}
	res.set("core.build_patch_us", us(timeIt(reps, func() { _, err = core.BuildPatch(1, p.dir, viols) })), "us")
	return p, err
}

// probeData times the receive side of one 512 KiB transfer (validation by
// stream.Reassembler plus the append the worker does) and the datastore's
// install/lookup pair.
func probeData(res *result) error {
	const total = 2 * stream.DefaultChunkSize
	chunks := []*proto.DataChunk{
		{Xfer: 1, Seq: 0, Total: total, Raw: make([]byte, stream.DefaultChunkSize)},
		{Xfer: 1, Seq: 1, Last: true, Total: total, Raw: make([]byte, stream.DefaultChunkSize)},
	}
	buf := make([]byte, 0, total)
	var err error
	d := timeIt(500, func() {
		ra := stream.Reassembler{Xfer: 1, Total: total}
		buf = buf[:0]
		for _, c := range chunks {
			var raw []byte
			if raw, err = ra.Accept(c); err != nil {
				return
			}
			buf = append(buf, raw...)
		}
	})
	if err != nil {
		return err
	}
	res.set("stream.reassemble_mb_per_s", total/1e6/d.Seconds(), "MB/s")

	store := datastore.New()
	data := make([]byte, 64)
	id := ids.ObjectID(0)
	res.set("datastore.install_get_ns", ns(timeIt(200000, func() {
		id = id%1024 + 1
		store.Install(id, ids.LogicalID(id), 1, data)
		_ = store.Get(id)
	})), "ns")
	return nil
}
