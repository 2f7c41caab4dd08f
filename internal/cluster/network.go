package cluster

import (
	"errors"
	"net"
	"time"
)

// network is where the node listens and the node and the client dial:
// every socket the package opens goes through one (make onenet keeps it
// so). NodeConfig.network and ClientConfig.network carry it and validate
// fills in tcpNetwork, so only the package's tests run on another, an
// in-memory network. A connection deadline is a time on the node's or
// the client's clock, and TCP enforces it on the wall, so TCP pairs
// only with the wall clock.
type network interface {
	listen(addr string) (net.Listener, error)
	dial(addr string, timeout time.Duration) (net.Conn, error)
}

// tcpNetwork is the real network.
type tcpNetwork struct{}

func (tcpNetwork) listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

func (tcpNetwork) dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// pairNetwork fills a config's network and clock in, TCP and the wall
// clock by default, and refuses TCP paired with any other clock.
func pairNetwork(nw *network, clk *clock) error {
	if *clk == nil {
		*clk = wallClock{}
	}
	if *nw == nil {
		*nw = tcpNetwork{}
	}
	if _, tcp := (*nw).(tcpNetwork); tcp {
		if _, wall := (*clk).(wallClock); !wall {
			return errors.New("cluster: a TCP network runs only on the wall clock")
		}
	}
	return nil
}
