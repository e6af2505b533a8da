package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one interopd child process serving the figure1 tenant on
// loopback, over HTTP/JSON and the binary transport.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	stderr   *bytes.Buffer
	exited   chan struct{}
	stopOnce sync.Once
}

// children tracks every started daemon so an interrupted run still
// stops them all.
var children struct {
	sync.Mutex
	list []*daemon
}

// freeAddr reserves a loopback port and releases it for the child.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches interopd with the figure1 tenant and waits until
// it serves. dataDir empty serves the tenant ephemerally; otherwise the
// tenant is durable (SyncAlways) and checkpoints every ckpt.
func startDaemon(bin, dataDir string, ckpt time.Duration) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := launch(bin, dataDir, ckpt)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func launch(bin, dataDir string, ckpt time.Duration) (*daemon, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", httpAddr, "-wire-addr", wireAddr, "-tenant", "figure1=figure1", "-quiet"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-checkpoint-interval", ckpt.String())
	}
	d := &daemon{
		cmd:      exec.Command(bin, args...),
		httpAddr: httpAddr,
		wireAddr: wireAddr,
		stderr:   &bytes.Buffer{},
		exited:   make(chan struct{}),
	}
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	d.cmd.Stderr = d.stderr
	// The child dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start interopd: %w", err)
	}
	children.Lock()
	children.list = append(children.list, d)
	children.Unlock()
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	url := "http://" + d.httpAddr + "/v1/figure1/health"
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("interopd exited during start: %s", strings.TrimSpace(d.stderr.String()))
		default:
		}
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("interopd not ready after %v", limit)
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// stop kills the child and waits until it has exited.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Kill()
		<-d.exited
	})
}

// stopChildren stops every daemon this process started.
func stopChildren() {
	children.Lock()
	list := append([]*daemon(nil), children.list...)
	children.Unlock()
	for _, d := range list {
		d.stop()
	}
}

// vmHWM reads a process's peak resident set size in MiB from /proc.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
