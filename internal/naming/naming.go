// Package naming implements the paper's migrated-document naming
// convention (§3.4). A document
//
//	http://h_name:h_port/dir1/dir2/.../dirn/foo.html
//
// migrated to a co-op server is addressed there as
//
//	http://c_name:c_port/~migrate/h_name/h_port/dir1/dir2/.../dirn/foo.html
//
// The co-op server recognizes "~migrate" as the first path component and
// recovers the home server address and original document name from the
// path itself, so no out-of-band mapping is required to route a migrated
// request back to its origin.
package naming

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Prefix is the leading path component identifying a migrated-document URL.
const Prefix = "~migrate"

// ErrNotMigrated is returned by Decode for paths that do not use the
// migration naming convention.
var ErrNotMigrated = errors.New("naming: not a ~migrate path")

// Origin identifies a home server.
type Origin struct {
	Host string
	Port int
}

// Addr returns the dialable "host:port" form.
func (o Origin) Addr() string { return o.Host + ":" + strconv.Itoa(o.Port) }

// ParseOrigin parses "host:port" into an Origin.
func ParseOrigin(addr string) (Origin, error) {
	idx := strings.LastIndexByte(addr, ':')
	if idx <= 0 || idx == len(addr)-1 {
		return Origin{}, fmt.Errorf("naming: address %q is not host:port", addr)
	}
	port, err := strconv.Atoi(addr[idx+1:])
	if err != nil || port <= 0 || port > 65535 {
		return Origin{}, fmt.Errorf("naming: bad port in %q", addr)
	}
	host := addr[:idx]
	if strings.ContainsAny(host, "/ ") {
		return Origin{}, fmt.Errorf("naming: bad host in %q", addr)
	}
	return Origin{Host: host, Port: port}, nil
}

// Encode maps a document path on the given home server to its migrated
// path on a co-op server. docPath must be rooted ("/dir/foo.html").
func Encode(home Origin, docPath string) (string, error) {
	if !strings.HasPrefix(docPath, "/") {
		return "", fmt.Errorf("naming: document path %q is not rooted", docPath)
	}
	if strings.Contains(home.Host, "/") {
		return "", fmt.Errorf("naming: host %q contains a slash", home.Host)
	}
	if home.Port <= 0 || home.Port > 65535 {
		return "", fmt.Errorf("naming: bad port %d", home.Port)
	}
	return "/" + Prefix + "/" + home.Host + "/" + strconv.Itoa(home.Port) + docPath, nil
}

// Decode recovers the home server and original document path from a
// migrated path. It returns ErrNotMigrated when the path does not start
// with the ~migrate component. A path that Encode of the result would not
// reproduce is rejected, so one migrated document has one name: a port
// written "080" or "+80" would otherwise alias ".../80/..." and make a
// co-op host a second copy that invalidations never reach.
func Decode(path string) (Origin, string, error) {
	if !IsMigrated(path) {
		return Origin{}, "", ErrNotMigrated
	}
	rest := path[len(Prefix)+1:] // strip "/~migrate"
	rest = strings.TrimPrefix(rest, "/")
	// rest = h_name/h_port/dir.../foo.html
	slash1 := strings.IndexByte(rest, '/')
	if slash1 <= 0 {
		return Origin{}, "", fmt.Errorf("naming: missing home host in %q", path)
	}
	host := rest[:slash1]
	rest = rest[slash1+1:]
	slash2 := strings.IndexByte(rest, '/')
	if slash2 <= 0 {
		return Origin{}, "", fmt.Errorf("naming: missing home port in %q", path)
	}
	// Encode writes the port in canonical decimal: a leading digit 1-9,
	// then digits, which Atoi checks.
	digits := rest[:slash2]
	port, err := strconv.Atoi(digits)
	if err != nil || digits[0] < '1' || digits[0] > '9' || port > 65535 {
		return Origin{}, "", fmt.Errorf("naming: bad home port in %q", path)
	}
	doc := rest[slash2:]
	return Origin{Host: host, Port: port}, doc, nil
}

// IsMigrated reports whether path uses the migrated naming convention.
func IsMigrated(path string) bool {
	return strings.HasPrefix(path, "/"+Prefix+"/")
}

// MigratedURL builds the full URL of a migrated document as served by the
// co-op server.
func MigratedURL(coop Origin, home Origin, docPath string) (string, error) {
	p, err := Encode(home, docPath)
	if err != nil {
		return "", err
	}
	return "http://" + coop.Addr() + p, nil
}

// HomeURL builds the full pre-migration URL of a document.
func HomeURL(home Origin, docPath string) string {
	return "http://" + home.Addr() + docPath
}

// SplitURL splits an absolute http URL into its server address and path.
// Relative paths are returned with an empty address.
func SplitURL(raw string) (addr, path string, err error) {
	if strings.HasPrefix(raw, "/") {
		return "", raw, nil
	}
	const scheme = "http://"
	if !strings.HasPrefix(raw, scheme) {
		return "", "", fmt.Errorf("naming: unsupported URL %q", raw)
	}
	host, path := raw[len(scheme):], "/"
	if slash := strings.IndexByte(host, '/'); slash >= 0 {
		host, path = host[:slash], host[slash:]
	}
	if host == "" {
		return "", "", fmt.Errorf("naming: missing host in URL %q", raw)
	}
	return host, path, nil
}
