#include "hostk/host_kernel.h"

#include <initializer_list>
#include <stdexcept>

namespace hostk {

namespace {
std::size_t index_of(Syscall sc) {
  const auto i = static_cast<std::size_t>(sc);
  if (i >= kSyscallCount) {
    throw std::out_of_range("HostKernel: invalid syscall");
  }
  return i;
}
}  // namespace

std::string_view syscall_name(Syscall s) {
  switch (s) {
    case Syscall::kRead: return "read";
    case Syscall::kWrite: return "write";
    case Syscall::kPread64: return "pread64";
    case Syscall::kPwrite64: return "pwrite64";
    case Syscall::kReadv: return "readv";
    case Syscall::kWritev: return "writev";
    case Syscall::kOpenat: return "openat";
    case Syscall::kClose: return "close";
    case Syscall::kFstat: return "fstat";
    case Syscall::kStatx: return "statx";
    case Syscall::kLseek: return "lseek";
    case Syscall::kFallocate: return "fallocate";
    case Syscall::kFsync: return "fsync";
    case Syscall::kGetdents64: return "getdents64";
    case Syscall::kIoSubmit: return "io_submit";
    case Syscall::kIoGetevents: return "io_getevents";
    case Syscall::kEventfd2: return "eventfd2";
    case Syscall::kEpollWait: return "epoll_wait";
    case Syscall::kEpollCtl: return "epoll_ctl";
    case Syscall::kPipe2: return "pipe2";
    case Syscall::kDup3: return "dup3";
    case Syscall::kFcntl: return "fcntl";
    case Syscall::kIoctlTun: return "ioctl(TUN)";
    case Syscall::kIoctlLoop: return "ioctl(LOOP)";
    case Syscall::kMmap: return "mmap";
    case Syscall::kMunmap: return "munmap";
    case Syscall::kMprotect: return "mprotect";
    case Syscall::kMadvise: return "madvise";
    case Syscall::kBrk: return "brk";
    case Syscall::kSocket: return "socket";
    case Syscall::kBind: return "bind";
    case Syscall::kListen: return "listen";
    case Syscall::kAccept4: return "accept4";
    case Syscall::kConnect: return "connect";
    case Syscall::kSendto: return "sendto";
    case Syscall::kRecvfrom: return "recvfrom";
    case Syscall::kSendmsg: return "sendmsg";
    case Syscall::kRecvmsg: return "recvmsg";
    case Syscall::kSetsockopt: return "setsockopt";
    case Syscall::kVsockSend: return "vsock_send";
    case Syscall::kVsockRecv: return "vsock_recv";
    case Syscall::kClone: return "clone";
    case Syscall::kClone3: return "clone3";
    case Syscall::kExecve: return "execve";
    case Syscall::kExitGroup: return "exit_group";
    case Syscall::kWait4: return "wait4";
    case Syscall::kFutexWait: return "futex(WAIT)";
    case Syscall::kFutexWake: return "futex(WAKE)";
    case Syscall::kSchedYield: return "sched_yield";
    case Syscall::kNanosleep: return "nanosleep";
    case Syscall::kKill: return "kill";
    case Syscall::kTgkill: return "tgkill";
    case Syscall::kRtSigreturn: return "rt_sigreturn";
    case Syscall::kPtraceSysemu: return "ptrace(SYSEMU)";
    case Syscall::kPtraceGetregs: return "ptrace(GETREGS)";
    case Syscall::kPtraceSetregs: return "ptrace(SETREGS)";
    case Syscall::kUnshare: return "unshare";
    case Syscall::kSetns: return "setns";
    case Syscall::kPivotRoot: return "pivot_root";
    case Syscall::kMount: return "mount";
    case Syscall::kUmount2: return "umount2";
    case Syscall::kSeccompLoad: return "seccomp(LOAD)";
    case Syscall::kPrctl: return "prctl";
    case Syscall::kCgroupWrite: return "cgroup_write";
    case Syscall::kClockGettime: return "clock_gettime";
    case Syscall::kKvmCreateVm: return "ioctl(KVM_CREATE_VM)";
    case Syscall::kKvmCreateVcpu: return "ioctl(KVM_CREATE_VCPU)";
    case Syscall::kKvmSetUserMemoryRegion: return "ioctl(KVM_SET_USER_MEMORY_REGION)";
    case Syscall::kKvmRun: return "ioctl(KVM_RUN)";
    case Syscall::kKvmIrqLine: return "ioctl(KVM_IRQ_LINE)";
    case Syscall::kKvmIoeventfd: return "ioctl(KVM_IOEVENTFD)";
    case Syscall::kKvmGetRegs: return "ioctl(KVM_GET_REGS)";
    case Syscall::kKvmSetRegs: return "ioctl(KVM_SET_REGS)";
    case Syscall::kProcRead: return "proc_read";
    case Syscall::kCount_: break;
  }
  return "unknown";
}

HostKernel::HostKernel()
    : model_(&shared_model()), ftrace_(model_->registry) {}

const HostKernel::Model& HostKernel::shared_model() {
  static const Model model;
  return model;
}

HostKernel::Model::Model() {
  using sim::DurationDist;
  using sim::micros;
  using sim::nanos;

  const auto define = [this](Syscall sc, DurationDist cost,
                             std::initializer_list<const char*> functions) {
    SyscallSpec& spec = specs[index_of(sc)];
    spec.cost = cost;
    // Every syscall passes through the common entry/exit path.
    for (const char* name :
         {"entry_SYSCALL_64", "do_syscall_64", "syscall_enter_from_user_mode",
          "syscall_exit_to_user_mode", "exit_to_user_mode_prepare",
          "audit_filter_syscall"}) {
      spec.functions.push_back(FunctionHit{registry.id_of(name), 1});
    }
    for (const char* name : functions) {
      spec.functions.push_back(FunctionHit{registry.id_of(name), 1});
    }
  };

  // Baseline user->kernel transition cost; individual handlers add on top.
  const auto fast = DurationDist::lognormal(nanos(250), 0.15);
  const auto medium = DurationDist::lognormal(nanos(900), 0.20);
  const auto slow = DurationDist::lognormal(micros(4), 0.25);
  const auto very_slow = DurationDist::lognormal(micros(40), 0.30);

  define(Syscall::kRead, fast,
         {"ksys_read", "vfs_read", "new_sync_read", "rw_verify_area",
          "security_file_permission", "__fsnotify_parent",
          "generic_file_read_iter", "filemap_read", "copy_page_to_iter",
          "touch_atime"});
  define(Syscall::kWrite, fast,
         {"ksys_write", "vfs_write", "new_sync_write", "rw_verify_area",
          "security_file_permission", "__fsnotify_parent",
          "generic_file_write_iter", "generic_perform_write",
          "copy_page_from_iter", "file_update_time", "sb_start_write",
          "balance_dirty_pages"});
  define(Syscall::kPread64, fast,
         {"vfs_read", "rw_verify_area", "security_file_permission",
          "generic_file_read_iter", "filemap_read", "copy_page_to_iter"});
  define(Syscall::kPwrite64, fast,
         {"vfs_write", "rw_verify_area", "security_file_permission",
          "generic_file_write_iter", "generic_perform_write",
          "copy_page_from_iter", "balance_dirty_pages"});
  define(Syscall::kReadv, fast,
         {"vfs_readv", "iov_iter_init", "rw_verify_area",
          "generic_file_read_iter", "filemap_read", "copy_page_to_iter"});
  define(Syscall::kWritev, fast,
         {"vfs_writev", "iov_iter_init", "rw_verify_area",
          "generic_file_write_iter", "generic_perform_write",
          "copy_page_from_iter"});
  define(Syscall::kOpenat, medium,
         {"do_sys_openat2", "getname_flags", "do_filp_open", "path_openat",
          "link_path_walk", "lookup_fast", "walk_component", "step_into",
          "lookup_open", "open_last_lookups", "may_open", "complete_walk",
          "do_dentry_open", "vfs_open", "security_file_permission",
          "alloc_fd", "fd_install", "putname", "terminate_walk", "dput",
          "ext4_file_open"});
  define(Syscall::kClose, fast,
         {"close_fd", "filp_close", "fput", "____fput", "ext4_release_file",
          "dput"});
  define(Syscall::kFstat, fast,
         {"vfs_getattr", "vfs_statx", "ext4_getattr", "cap_capable"});
  define(Syscall::kStatx, medium,
         {"vfs_statx", "getname_flags", "link_path_walk", "lookup_fast",
          "ext4_getattr", "putname", "dput"});
  define(Syscall::kLseek, fast, {"generic_file_llseek"});
  define(Syscall::kFallocate, very_slow,
         {"vfs_fallocate", "ext4_fallocate", "ext4_map_blocks",
          "ext4_ext_map_blocks", "ext4_journal_start_sb", "sb_start_write"});
  define(Syscall::kFsync, very_slow,
         {"vfs_fsync_range", "ext4_sync_file",
          "jbd2_journal_commit_transaction", "submit_bio",
          "blk_mq_submit_bio", "nvme_queue_rq", "nvme_complete_rq",
          "bio_endio", "blk_account_io_done"});
  define(Syscall::kGetdents64, medium,
         {"iterate_dir", "dcache_readdir", "security_file_permission",
          "touch_atime"});
  define(Syscall::kIoSubmit, medium,
         {"io_submit_one", "aio_read", "aio_write", "rw_verify_area",
          "ext4_file_read_iter", "ext4_direct_IO", "iomap_dio_rw",
          "submit_bio", "submit_bio_noacct", "blk_mq_submit_bio",
          "blk_mq_get_new_requests", "blk_account_io_start",
          "nvme_setup_cmd", "nvme_queue_rq", "blk_start_plug",
          "blk_finish_plug", "bio_alloc_bioset"});
  define(Syscall::kIoGetevents, fast,
         {"do_io_getevents", "iomap_dio_bio_end_io", "bio_endio",
          "blk_mq_end_request", "blk_mq_complete_request",
          "nvme_pci_complete_rq", "nvme_process_cq", "nvme_irq",
          "blk_account_io_done"});
  define(Syscall::kEventfd2, fast, {"anon_inode_getfd", "alloc_fd", "fd_install"});
  define(Syscall::kEpollWait, fast,
         {"do_epoll_wait", "ep_poll", "ep_send_events", "schedule",
          "__schedule", "try_to_wake_up"});
  define(Syscall::kEpollCtl, fast, {"do_epoll_ctl", "ep_insert"});
  define(Syscall::kPipe2, medium,
         {"do_pipe2", "anon_inode_getfd", "alloc_fd", "fd_install"});
  define(Syscall::kDup3, fast, {"do_dup2", "fd_install"});
  define(Syscall::kFcntl, fast, {"do_fcntl"});
  define(Syscall::kIoctlTun, fast,
         {"tun_get_user", "tun_net_xmit", "netif_rx_internal",
          "enqueue_to_backlog"});
  define(Syscall::kIoctlLoop, medium,
         {"loop_queue_work", "loop_handle_cmd", "lo_rw_aio", "submit_bio",
          "blk_mq_submit_bio"});

  define(Syscall::kMmap, medium,
         {"vm_mmap_pgoff", "do_mmap", "mmap_region", "vma_merge", "vma_link",
          "security_mmap_file", "security_vm_enough_memory_mm",
          "perf_event_mmap", "find_vma"});
  define(Syscall::kMunmap, medium,
         {"__do_munmap", "unmap_region", "zap_page_range", "tlb_flush_mmu",
          "flush_tlb_mm_range", "free_unref_page", "find_vma"});
  define(Syscall::kMprotect, medium,
         {"mprotect_fixup", "change_protection", "flush_tlb_mm_range",
          "vma_merge", "find_vma"});
  define(Syscall::kMadvise, medium,
         {"madvise_dontneed_free", "zap_page_range", "ksm_madvise",
          "find_vma"});
  define(Syscall::kBrk, fast, {"do_brk_flags", "find_vma", "vma_merge"});

  define(Syscall::kSocket, medium,
         {"__sys_socket", "sock_alloc_file", "security_socket_create",
          "alloc_fd", "fd_install"});
  define(Syscall::kBind, fast, {"inet_bind", "security_capable"});
  define(Syscall::kListen, fast, {"inet_listen"});
  define(Syscall::kAccept4, medium,
         {"__sys_accept4", "inet_csk_accept", "tcp_v4_syn_recv_sock",
          "sock_alloc_file", "alloc_fd", "fd_install"});
  define(Syscall::kConnect, slow,
         {"__sys_connect", "tcp_v4_connect", "ip_route_output_key_hash",
          "fib_table_lookup", "tcp_transmit_skb", "ip_queue_xmit"});
  define(Syscall::kSendto, medium,
         {"__sys_sendto", "sock_sendmsg", "security_socket_sendmsg",
          "apparmor_socket_sendmsg", "tcp_sendmsg", "tcp_sendmsg_locked",
          "sk_stream_alloc_skb", "__alloc_skb", "tcp_push", "tcp_write_xmit",
          "__tcp_transmit_skb", "ip_queue_xmit", "ip_local_out", "ip_output",
          "ip_finish_output2", "dev_queue_xmit", "__dev_queue_xmit",
          "dev_hard_start_xmit", "sock_wfree"});
  define(Syscall::kRecvfrom, medium,
         {"__sys_recvfrom", "sock_recvmsg", "security_socket_recvmsg",
          "tcp_recvmsg", "skb_copy_datagram_iter", "tcp_rcv_established",
          "tcp_ack", "tcp_clean_rtx_queue", "skb_release_data", "kfree_skb",
          "sock_def_readable"});
  define(Syscall::kSendmsg, medium,
         {"____sys_sendmsg", "sock_sendmsg", "security_socket_sendmsg",
          "tcp_sendmsg", "tcp_write_xmit", "__tcp_transmit_skb",
          "ip_queue_xmit", "dev_queue_xmit", "__alloc_skb"});
  define(Syscall::kRecvmsg, medium,
         {"____sys_recvmsg", "sock_recvmsg", "security_socket_recvmsg",
          "tcp_recvmsg", "skb_copy_datagram_iter", "kfree_skb"});
  define(Syscall::kSetsockopt, fast, {"sock_setsockopt", "tcp_setsockopt"});

  define(Syscall::kVsockSend, medium,
         {"vsock_stream_sendmsg", "virtio_transport_send_pkt",
          "virtio_transport_do_send_pkt", "vhost_vsock_handle_tx_kick",
          "vhost_poll_queue", "eventfd_signal"});
  define(Syscall::kVsockRecv, medium,
         {"vsock_stream_recvmsg", "virtio_transport_recv_pkt",
          "vsock_queue_rcv_skb", "vhost_vsock_handle_rx_kick",
          "vsock_poll"});

  define(Syscall::kClone, slow,
         {"kernel_clone", "copy_process", "copy_namespaces",
          "security_task_alloc", "cgroup_can_fork", "cgroup_post_fork",
          "copy_page_range", "wake_up_new_task", "try_to_wake_up",
          "select_task_rq_fair"});
  define(Syscall::kClone3, slow,
         {"kernel_clone", "copy_process", "copy_namespaces",
          "security_task_alloc", "cgroup_can_fork", "cgroup_post_fork",
          "wake_up_new_task", "try_to_wake_up"});
  define(Syscall::kExecve, very_slow,
         {"do_execveat_common", "bprm_execve", "begin_new_exec",
          "load_elf_binary", "setup_arg_pages", "security_bprm_check",
          "mm_release", "exit_mm", "vm_mmap_pgoff", "do_mmap",
          "handle_mm_fault", "filemap_fault"});
  define(Syscall::kExitGroup, slow,
         {"do_group_exit", "do_exit", "exit_mm", "release_task",
          "acct_collect", "taskstats_exit", "do_task_dead", "__schedule"});
  define(Syscall::kWait4, medium,
         {"kernel_waitid", "do_wait", "release_task", "schedule",
          "__schedule"});
  define(Syscall::kFutexWait, fast,
         {"do_futex", "futex_wait", "get_futex_key", "hash_futex",
          "futex_wait_queue_me", "schedule", "__schedule",
          "finish_task_switch"});
  define(Syscall::kFutexWake, fast,
         {"do_futex", "futex_wake", "get_futex_key", "hash_futex",
          "wake_up_q", "try_to_wake_up", "ttwu_do_activate",
          "select_task_rq_fair", "enqueue_task_fair"});
  define(Syscall::kSchedYield, fast,
         {"do_sched_yield", "schedule", "__schedule", "pick_next_task_fair",
          "put_prev_task_fair", "context_switch", "finish_task_switch"});
  define(Syscall::kNanosleep, fast,
         {"hrtimer_nanosleep", "do_nanosleep", "hrtimer_start_range_ns",
          "schedule", "__schedule", "hrtimer_wakeup"});
  define(Syscall::kKill, medium,
         {"kill_pid_info", "group_send_sig_info", "__send_signal",
          "complete_signal", "signal_wake_up_state", "find_task_by_vpid",
          "pid_vnr"});
  define(Syscall::kTgkill, medium,
         {"do_send_sig_info", "__send_signal", "complete_signal",
          "signal_wake_up_state"});
  define(Syscall::kRtSigreturn, fast,
         {"restore_sigcontext", "do_signal", "get_signal"});

  define(Syscall::kPtraceSysemu, slow,
         {"ptrace_request", "ptrace_resume", "ptrace_stop", "ptrace_notify",
          "ptrace_check_attach", "__send_signal", "signal_wake_up_state",
          "schedule", "__schedule", "context_switch", "finish_task_switch",
          "try_to_wake_up"});
  define(Syscall::kPtraceGetregs, medium,
         {"ptrace_request", "arch_ptrace", "ptrace_getregs",
          "ptrace_check_attach"});
  define(Syscall::kPtraceSetregs, medium,
         {"ptrace_request", "arch_ptrace", "ptrace_setregs",
          "ptrace_check_attach"});

  define(Syscall::kUnshare, very_slow,
         {"ksys_unshare", "unshare_nsproxy_namespaces",
          "create_new_namespaces", "copy_pid_ns", "create_pid_namespace",
          "copy_net_ns", "setup_net", "copy_mnt_ns", "copy_utsname",
          "copy_ipcs", "create_user_ns", "switch_task_namespaces",
          "proc_alloc_inum"});
  define(Syscall::kSetns, slow,
         {"__do_sys_setns", "pidns_install", "mntns_install",
          "netns_install", "switch_task_namespaces"});
  define(Syscall::kPivotRoot, slow,
         {"__do_sys_pivot_root", "pivot_root", "mnt_set_mountpoint",
          "attach_recursive_mnt"});
  define(Syscall::kMount, very_slow,
         {"do_mount", "path_mount", "do_new_mount", "vfs_create_mount",
          "attach_recursive_mnt", "propagate_mnt", "security_capable"});
  define(Syscall::kUmount2, slow, {"do_umount", "dput", "path_put"});
  define(Syscall::kSeccompLoad, slow,
         {"do_seccomp", "prctl_set_seccomp", "seccomp_attach_filter",
          "security_capable"});
  define(Syscall::kPrctl, fast, {"security_capable", "cap_capable"});
  define(Syscall::kCgroupWrite, slow,
         {"cgroup_file_write", "kernfs_fop_read_iter", "cgroup_attach_task",
          "cgroup_migrate", "css_set_move_task", "cpu_cgroup_attach",
          "mem_cgroup_can_attach", "cpu_shares_write_u64",
          "memory_max_write", "pids_max_write"});
  define(Syscall::kClockGettime, DurationDist::lognormal(sim::nanos(60), 0.1),
         {"do_clock_gettime", "ktime_get", "read_tsc"});

  define(Syscall::kKvmCreateVm, very_slow,
         {"kvm_dev_ioctl", "kvm_vm_ioctl", "kvm_arch_hardware_enable",
          "anon_inode_getfd", "alloc_fd", "fd_install"});
  define(Syscall::kKvmCreateVcpu, very_slow,
         {"kvm_vm_ioctl", "kvm_vm_ioctl_create_vcpu", "kvm_arch_vcpu_create",
          "anon_inode_getfd", "alloc_fd", "fd_install"});
  define(Syscall::kKvmSetUserMemoryRegion, very_slow,
         {"kvm_vm_ioctl", "kvm_set_memory_region",
          "__kvm_set_memory_region", "kvm_mmu_load"});
  define(Syscall::kKvmRun, DurationDist::lognormal(sim::micros(1.8), 0.25),
         {"kvm_vcpu_ioctl", "kvm_arch_vcpu_ioctl_run", "vcpu_enter_guest",
          "vmx_vcpu_run", "vmx_prepare_switch_to_guest", "vmx_handle_exit",
          "kvm_guest_exit_irqoff", "kvm_load_guest_fpu", "kvm_put_guest_fpu",
          "kvm_io_bus_write", "kvm_io_bus_read", "handle_io",
          "kvm_mmu_page_fault", "handle_ept_violation", "direct_page_fault",
          "kvm_tdp_mmu_map", "record_steal_time", "kvm_on_user_return"});
  define(Syscall::kKvmIrqLine, medium,
         {"kvm_vm_ioctl", "kvm_set_msi", "kvm_irq_delivery_to_apic",
          "kvm_apic_set_irq", "kvm_vcpu_kick", "kvm_vcpu_wake_up",
          "ipi_send_single", "smp_call_function_single"});
  define(Syscall::kKvmIoeventfd, medium,
         {"kvm_vm_ioctl", "ioeventfd_write", "eventfd_signal", "irqfd_wakeup",
          "wake_up_interruptible_poll"});
  define(Syscall::kKvmGetRegs, medium, {"kvm_vcpu_ioctl"});
  define(Syscall::kKvmSetRegs, medium, {"kvm_vcpu_ioctl"});

  define(Syscall::kProcRead, medium,
         {"proc_reg_read", "proc_pid_status", "seq_read_iter",
          "kernfs_iop_lookup", "vfs_read"});
}

sim::Nanos HostKernel::invoke(Syscall sc, sim::Rng& rng, std::uint64_t count) {
  if (count == 0) {
    return 0;
  }
  const std::size_t i = index_of(sc);
  const auto& spec = model_->specs[i];
  if (ftrace_.recording()) {
    TraceSlots& cache = trace_slots_[i];
    if (cache.generation != ftrace_.generation()) {
      cache.slots.clear();
      for (const auto& hit : spec.functions) {
        if (hit.count > 0) {  // record() never creates zero-count entries
          cache.slots.emplace_back(ftrace_.slot(hit.fn), hit.count);
        }
      }
      cache.generation = ftrace_.generation();
    }
    for (const auto& [slot, mult] : cache.slots) {
      *slot += mult * count;
    }
  }
  // One stochastic sample scaled by count: keeps long batches cheap while
  // preserving run-to-run variance of the batch total.
  return spec.cost.sample(rng) * static_cast<sim::Nanos>(count);
}

sim::Nanos HostKernel::invoke_on(sim::Clock& clock, Syscall sc, sim::Rng& rng,
                                 std::uint64_t count) {
  const sim::Nanos cost = invoke(sc, rng, count);
  clock.advance(cost);
  return cost;
}

void HostKernel::record_background(const std::vector<FunctionHit>& hits,
                                   std::uint64_t repeat) {
  if (!ftrace_.recording()) {
    return;
  }
  for (const auto& hit : hits) {
    ftrace_.record(hit.fn, static_cast<std::uint64_t>(hit.count) * repeat);
  }
}

const SyscallSpec& HostKernel::spec(Syscall sc) const {
  return model_->specs[index_of(sc)];
}

sim::Nanos HostKernel::mean_cost(Syscall sc) const {
  return model_->specs[index_of(sc)].cost.mean();
}

}  // namespace hostk
