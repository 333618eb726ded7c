package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// xqdProc is the program under test: one cmd/xqd child process serving the
// generated corpora on a loopback port the kernel picks.
type xqdProc struct {
	cmd     *exec.Cmd
	addr    string
	args    []string
	done    chan struct{} // closed once the process has been waited for
	waitErr error
}

// startXQD launches bin with args plus a loopback listen address and
// returns once xqd has announced its port. Its output goes to logPath.
func startXQD(bin string, args []string, logPath string) (*xqdProc, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stderr = log
	// xqd must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, err := cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	p := &xqdProc{cmd: cmd, args: full, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start xqd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		// Copy xqd's stdout to the log until the pipe closes at exit,
		// handing over the port announcement on the way.
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(log, line)
			if a, ok := strings.CutPrefix(line, "xqd: listening on "); ok && !sent {
				addrc <- a
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
		io.Copy(io.Discard, out)
		p.waitErr = cmd.Wait()
		log.Close()
		close(p.done)
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			<-p.done
			return nil, fmt.Errorf("xqd exited before listening (%v); see %s", p.waitErr, logPath)
		}
		p.addr = a
		return p, nil
	case <-time.After(120 * time.Second):
		p.stop()
		return nil, fmt.Errorf("xqd did not listen within 120s; see %s", logPath)
	}
}

// waitHealthy polls /healthz until it answers 200.
func (p *xqdProc) waitHealthy() error {
	c := newConn(p.addr)
	defer c.close()
	var resp response
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.do("GET", "/healthz", nil, &resp); err == nil && resp.status == 200 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("xqd /healthz did not answer within 60s")
}

// stop drains xqd with SIGTERM and waits for it to exit, killing it if the
// drain takes longer than 20 seconds.
func (p *xqdProc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTicks = 100

// cpuTime returns xqd's user+system CPU time so far.
func (p *xqdProc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat cpu fields")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// status reads one "Key: N kB" line of /proc/<pid>/status, in bytes.
func (p *xqdProc) status(key string) (int64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", key)
}

// metrics scrapes /metrics into name{labels} -> value.
func (p *xqdProc) metrics() (map[string]float64, error) {
	c := newConn(p.addr)
	defer c.close()
	var resp response
	if err := c.do("GET", "/metrics", nil, &resp); err != nil {
		return nil, err
	}
	if resp.status != 200 {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.status)
	}
	return parseProm(resp.body), nil
}

func parseProm(body []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}
