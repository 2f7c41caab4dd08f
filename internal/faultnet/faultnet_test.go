package faultnet

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startEcho runs a line-echo TCP server and returns its address plus a
// closer.
func startEcho(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return echoOn(t, ln)
}

// echoOn serves line echo on ln until the returned closer runs.
func echoOn(t *testing.T, ln net.Listener) (string, func()) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if _, err := conn.Write([]byte(line)); err != nil {
						return
					}
				}
			}()
		}
	}()
	var once sync.Once
	return ln.Addr().String(), func() { once.Do(func() { ln.Close(); wg.Wait() }) }
}

func tcpDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func newLink(t *testing.T, target string, s Schedule) *Link {
	t.Helper()
	l, err := New(tcpDial, target, s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Sever)
	return l
}

// roundTrip sends one line through the link and reads the echo. It gives
// up after timeout by closing the connection, as a pooled client's RPC
// timer does.
func roundTrip(t *testing.T, l *Link, msg string, timeout time.Duration) (string, error) {
	t.Helper()
	conn, err := l.Dial(timeout)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	giveUp := time.AfterFunc(timeout, func() { conn.Close() })
	defer giveUp.Stop()
	if _, err := conn.Write([]byte(msg + "\n")); err != nil {
		return "", err
	}
	return bufio.NewReader(conn).ReadString('\n')
}

func TestPassThrough(t *testing.T) {
	addr, stop := startEcho(t)
	defer stop()
	l := newLink(t, addr, nil)
	got, err := roundTrip(t, l, "hello", time.Second)
	if err != nil || got != "hello\n" {
		t.Fatalf("roundTrip: %q, %v", got, err)
	}
	if l.Dials() != 1 {
		t.Errorf("dialed %d connections, want 1", l.Dials())
	}
}

func TestRefuseFirstIsDeterministic(t *testing.T) {
	addr, stop := startEcho(t)
	defer stop()
	l := newLink(t, addr, RefuseFirst(3))
	failures := 0
	for i := 0; i < 5; i++ {
		if _, err := roundTrip(t, l, "x", time.Second); err != nil {
			failures++
		}
	}
	if failures != 3 {
		t.Errorf("schedule refused %d connections, want exactly 3", failures)
	}
}

func TestOneWayPartitionAndHeal(t *testing.T) {
	addr, stop := startEcho(t)
	defer stop()
	l := newLink(t, addr, nil)
	l.Partition(ClientToServer)
	if _, err := roundTrip(t, l, "lost", 200*time.Millisecond); err == nil {
		t.Error("request crossed a client->server partition")
	}
	l.Heal()
	got, err := roundTrip(t, l, "back", time.Second)
	if err != nil || got != "back\n" {
		t.Fatalf("after heal: %q, %v", got, err)
	}
}

func TestBlackholeTimesOutClient(t *testing.T) {
	addr, stop := startEcho(t)
	defer stop()
	l := newLink(t, addr, nil)
	l.SetBlackhole(true)
	start := time.Now()
	if _, err := roundTrip(t, l, "void", 150*time.Millisecond); err == nil {
		t.Fatal("blackholed connection produced a reply")
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("client failed fast (%v); blackhole must force a timeout", elapsed)
	}
	l.SetBlackhole(false)
	if _, err := roundTrip(t, l, "alive", time.Second); err != nil {
		t.Fatalf("after blackhole lifted: %v", err)
	}
}

func TestTruncateReply(t *testing.T) {
	addr, stop := startEcho(t)
	defer stop()
	l := newLink(t, addr, func(int) Plan {
		return Plan{TruncateReplyAfter: 4}
	})
	got, err := roundTrip(t, l, strings.Repeat("z", 64), time.Second)
	if err == nil {
		t.Fatalf("truncated reply parsed as a full line: %q", got)
	}
	if len(got) > 4 {
		t.Errorf("received %d bytes through a 4-byte truncation", len(got))
	}
}

// TestLinkReachesRebindAfterRestart: a target that "crashes" and comes
// back on the same address is reached again, and a dial while it is
// down is refused on the connection, not at the dial.
func TestLinkReachesRebindAfterRestart(t *testing.T) {
	addr, stopA := startEcho(t)
	defer stopA()
	l := newLink(t, addr, nil)
	if _, err := roundTrip(t, l, "a", time.Second); err != nil {
		t.Fatal(err)
	}
	stopA() // target "crashes"
	if _, err := roundTrip(t, l, "down", time.Second); err == nil {
		t.Fatal("a dial to a downed target was answered")
	}
	ln, err := net.Listen("tcp", addr) // target "restarts" on its address
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	_, stopB := echoOn(t, ln)
	defer stopB()
	got, err := roundTrip(t, l, "b", time.Second)
	if err != nil || got != "b\n" {
		t.Fatalf("after restart: %q, %v", got, err)
	}
}

func TestNewRejectsEmptyTarget(t *testing.T) {
	if _, err := New(tcpDial, "", nil); err == nil {
		t.Error("empty target accepted")
	}
}

// TestSeverClosesOpenConnections: Sever cuts every open stream, black
// holes included, and new dials pass.
func TestSeverClosesOpenConnections(t *testing.T) {
	addr, stop := startEcho(t)
	defer stop()
	l := newLink(t, addr, func(i int) Plan { return Plan{Blackhole: i == 1} })
	live, err := l.Dial(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hole, err := l.Dial(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	l.Sever()
	for name, c := range map[string]net.Conn{"live": live, "black hole": hole} {
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Errorf("%s connection read after Sever", name)
		}
	}
	if got, err := roundTrip(t, l, "again", time.Second); err != nil || got != "again\n" {
		t.Fatalf("after sever: %q, %v", got, err)
	}
}
