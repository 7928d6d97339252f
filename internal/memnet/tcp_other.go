//go:build !linux || 386

package memnet

import "net"

// wrapTCP returns c unchanged: the raw data path (tcp_linux.go) is built
// for Linux only, 386 excepted, and elsewhere the standard library's is
// the one there is. Without SendFile a file body is read into memory and
// written (httpx.Response).
func wrapTCP(c *net.TCPConn) net.Conn { return c }
