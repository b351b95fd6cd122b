package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
)

// streamConn is a net.Conn whose inbound side is a fixed byte stream and
// whose outbound side is recorded. Only the methods the TCP listeners and
// the mux client's read loop call are implemented.
type streamConn struct {
	net.Conn
	in *bytes.Reader

	mu  sync.Mutex
	out bytes.Buffer
}

func (c *streamConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c *streamConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

func (c *streamConn) Close() error { return nil }

// FuzzMuxFrame feeds arbitrary bytes to both ends of the TCP protocols.
// Server side, the stream goes through the protocol sniff, the mux
// handshake and the mux frame loop (or the legacy loop), served by an
// echo processor: nothing may panic or hang, and whatever the server
// wrote must parse back as whole response frames. Client side, the
// stream (minus any handshake) is what a mux connection's readLoop
// reads: every pending caller must be woken exactly once.
func FuzzMuxFrame(f *testing.F) {
	hello := append(muxMagic[:], muxVersion)
	muxReq := func(id uint64, action string, body []byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(muxReqFixed+len(action)+len(body)))
		b = binary.BigEndian.AppendUint64(b, id)
		b = append(b, tcpWireBinary)
		b = binary.BigEndian.AppendUint16(b, uint16(len(action)))
		b = append(b, action...)
		return append(b, body...)
	}
	session := append(append(append([]byte{}, hello...), muxReq(1, "echo", []byte("hello"))...), muxReq(2, "", nil)...)
	legacy := binary.BigEndian.AppendUint32(nil, uint32(3+len("echo")+3))
	legacy = append(legacy, tcpWireXML, 0, 4)
	legacy = append(legacy, "echo<a>"...)
	f.Add(session)
	f.Add(session[:len(session)-3])
	f.Add(session[:len(hello)+6])
	f.Add(hello)
	f.Add(legacy)
	f.Add(legacy[:5])
	// A header declaring a 200 MiB frame, then end of stream.
	f.Add(append(append([]byte{}, hello...), 0x0C, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &streamConn{in: bytes.NewReader(data)}
		l := &TCPListener{proc: echoProc{}, ctx: context.Background(), conns: map[net.Conn]struct{}{conn: {}}}
		l.serveConn(conn)
		out := bufio.NewReader(bytes.NewReader(conn.out.Bytes()))
		isMux := bytes.HasPrefix(data, hello)
		for {
			if _, err := out.Peek(1); errors.Is(err, io.EOF) {
				break
			}
			var err error
			if isMux {
				_, _, _, err = readMuxFrame(out, muxRespHdr)
			} else {
				_, _, err = readTCPFrame(out)
			}
			if err != nil {
				t.Fatalf("server wrote a malformed response frame: %v", err)
			}
		}

		m := newMuxConn(&streamConn{in: bytes.NewReader(bytes.TrimPrefix(data, hello))})
		waiters := make([]chan muxReply, 3)
		for i := range waiters {
			waiters[i] = make(chan muxReply, 1)
			m.pending[uint64(i+1)] = waiters[i]
		}
		m.readLoop()
		for i, ch := range waiters {
			select {
			case <-ch:
			default:
				t.Fatalf("pending call %d never woken", i+1)
			}
		}
	})
}
