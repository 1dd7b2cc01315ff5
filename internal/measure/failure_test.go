package measure

import (
	"context"
	"sort"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// TestRemoteSurvivesServerDeathCleanly: when the measurement server dies
// mid-session, the client reports an error instead of hanging or
// panicking, and the tuner propagates it.
func TestRemoteSurvivesServerDeathCleanly(t *testing.T) {
	task, sp := setupTask(t)
	srv, err := NewServer([]string{hwspec.TitanXp})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Dial(addr, hwspec.TitanXp)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// First batch succeeds.
	g := rng.New(1)
	if _, err := remote.MeasureBatch(task, sp, []int64{sp.RandomIndex(g)}); err != nil {
		t.Fatal(err)
	}
	// Kill the server; the next batch must fail fast with an error.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.MeasureBatch(task, sp, []int64{sp.RandomIndex(g)}); err == nil {
		t.Fatal("measurement against dead server succeeded")
	}
}

// TestDialUnreachableAddress fails fast.
func TestDialUnreachableAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", hwspec.TitanXp); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestDialTimeoutUnroutableAddress: an address that blackholes SYNs (here
// TEST-NET-3, reserved by RFC 5737) must fail within roughly the timeout
// instead of hanging for the kernel's default (minutes).
func TestDialTimeoutUnroutableAddress(t *testing.T) {
	start := time.Now()
	_, err := DialTimeout("203.0.113.1:9", hwspec.TitanXp, 250*time.Millisecond)
	if err == nil {
		t.Fatal("dial to unroutable address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("dial blocked %v despite 250ms timeout", elapsed)
	}
}

// TestListDeterministicOrder: the device list is sorted, not map order, so
// client logs are reproducible.
func TestListDeterministicOrder(t *testing.T) {
	srv, err := NewServer([]string{hwspec.RTX3090, hwspec.TitanXp, hwspec.RTX2070Super, hwspec.RTX2080Ti})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		var reply ListReply
		if err := srv.List(struct{}{}, &reply); err != nil {
			t.Fatal(err)
		}
		if !sort.StringsAreSorted(reply.Devices) {
			t.Fatalf("List order not sorted: %v", reply.Devices)
		}
		if len(reply.Devices) != 4 {
			t.Fatalf("%d devices", len(reply.Devices))
		}
	}
}

// TestPingHealthRPC: the health check answers over the wire and reflects
// hosted devices.
func TestPingHealthRPC(t *testing.T) {
	srv, err := NewServer([]string{hwspec.TitanXp, hwspec.RTX3090})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := Dial(addr, hwspec.TitanXp)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDialTimeout)
	defer cancel()
	health, err := remote.PingContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Devices != 2 || health.Draining || health.InFlight != 0 {
		t.Fatalf("health = %+v", health)
	}
}

// TestDrainAndClose: a draining server rejects new work with ErrDraining,
// reports itself unhealthy, and severs connections when done.
func TestDrainAndClose(t *testing.T) {
	task, sp := setupTask(t)
	srv, err := NewServer([]string{hwspec.TitanXp})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Dial(addr, hwspec.TitanXp)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	g := rng.New(1)
	if _, err := remote.MeasureBatch(task, sp, []int64{sp.RandomIndex(g)}); err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if err := srv.DrainAndClose(dctx); err != nil {
		t.Fatal(err)
	}
	var health PingReply
	if err := srv.Ping(struct{}{}, &health); err != nil {
		t.Fatal(err)
	}
	if health.OK || !health.Draining {
		t.Fatalf("drained server health = %+v", health)
	}
	var reply MeasureReply
	if err := srv.Measure(MeasureArgs{Device: hwspec.TitanXp, Model: task.Model,
		TaskIndex: task.Index, Indices: []int64{0}}, &reply); err != ErrDraining {
		t.Fatalf("draining Measure error = %v, want ErrDraining", err)
	}
	// The severed connection surfaces as an error, not a hang.
	if _, err := remote.MeasureBatch(task, sp, []int64{sp.RandomIndex(g)}); err == nil {
		t.Fatal("measurement against drained server succeeded")
	}
}
