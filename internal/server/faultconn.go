// faultConn is the transport face of the chaos plane: a net.Conn whose
// reads and writes pass through the connection's fault injector. Slow
// connections stall before I/O, torn connections deliver a prefix of a
// write and die, dropped connections die outright. Deadlines, addresses
// and Close delegate to the real conn, so drain interrupts and idle
// eviction work unchanged on a faulted connection. One goroutine owns
// the injector: the connection's session does every read and write
// itself, so the injector's unsynchronized schedule state needs no lock.
package server

import (
	"errors"
	"net"

	"csds/internal/fault"
)

var (
	errInjectedDrop = errors.New("server: fault: injected connection drop")
	errInjectedTear = errors.New("server: fault: injected torn write")
)

type faultConn struct {
	net.Conn
	inj *fault.Injector
}

func (f *faultConn) Read(p []byte) (int, error) {
	f.inj.Delay(fault.ConnSlow)
	if f.inj.Fire(fault.ConnDrop) {
		f.Conn.Close()
		return 0, errInjectedDrop
	}
	return f.Conn.Read(p)
}

func (f *faultConn) Write(p []byte) (int, error) {
	f.inj.Delay(fault.ConnSlow)
	if f.inj.Fire(fault.ConnTorn) && len(p) > 1 {
		// Half the buffer reaches the wire, then the conn dies: the
		// client sees a truncated response it must not mistake for a
		// complete one (the protocol's CRLF/END framing guarantees it
		// cannot).
		n, _ := f.Conn.Write(p[: len(p)/2 : len(p)/2])
		f.Conn.Close()
		return n, errInjectedTear
	}
	if f.inj.Fire(fault.ConnDrop) {
		f.Conn.Close()
		return 0, errInjectedDrop
	}
	return f.Conn.Write(p)
}
