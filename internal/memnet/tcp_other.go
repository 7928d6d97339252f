//go:build !linux

package memnet

import "net"

// wrapTCP returns c unchanged: the raw data path (tcp_linux.go) is built
// for Linux only, and elsewhere the standard library's is the one there is.
func wrapTCP(c *net.TCPConn) net.Conn { return c }
