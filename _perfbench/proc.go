package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// childCommand builds a command whose process is killed if the
// benchmark dies first, so no child outlives an aborted run.
func childCommand(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// cpuSeconds reads a process's user plus system CPU time in seconds
// from /proc/<pid>/stat (clock ticks of 1/100 s on Linux).
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return (utime + stime) / 100, nil
}
