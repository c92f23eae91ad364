// Thread names by role, so per-thread CPU reads by role.
//
// The runtime names each thread it starts: mm-loop (the event loop),
// mm-verify (ingest workers), mm-exec-merge and mm-exec (the execution
// engine's merge thread and decode workers) and mm-wal (the group-commit
// writer). The kernel shows the name in /proc/<pid>/task/<tid>/comm, top -H
// and perf; scripts/thread_cpu.py sums CPU per name. Linux truncates names
// to 15 bytes.
#pragma once

#include <pthread.h>

namespace mahimahi {

// Names the calling thread.
inline void set_thread_name(const char* name) {
  pthread_setname_np(pthread_self(), name);
}

}  // namespace mahimahi
