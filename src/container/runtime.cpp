#include "container/runtime.h"

namespace container {

using hostk::Syscall;
using sim::DurationDist;
using sim::millis;

std::string storage_driver_name(StorageDriver d) {
  switch (d) {
    case StorageDriver::kOverlay2:
      return "overlay2";
    case StorageDriver::kZfs:
      return "zfs";
    case StorageDriver::kBindMount:
      return "bind";
  }
  return "unknown";
}

ContainerRuntime::ContainerRuntime(RuntimeSpec spec, hostk::HostKernel& host)
    : spec_(std::move(spec)), host_(&host) {}

core::BootTimeline ContainerRuntime::storage_timeline() const {
  core::BootTimeline t;
  switch (spec_.storage) {
    case StorageDriver::kOverlay2:
      t.stage("storage:layer-prepare", DurationDist::lognormal(millis(26), 0.2));
      t.stage("storage:overlay2-mount", DurationDist::lognormal(millis(22), 0.2));
      break;
    case StorageDriver::kZfs:
      // Clone of the container dataset inside the pool.
      t.stage("storage:zfs-clone", DurationDist::lognormal(millis(78), 0.18));
      t.stage("storage:zfs-mount", DurationDist::lognormal(millis(12), 0.2));
      break;
    case StorageDriver::kBindMount:
      t.stage("storage:bind-mount", DurationDist::lognormal(millis(2), 0.25));
      break;
  }
  return t;
}

const core::BootTimeline& ContainerRuntime::boot_timeline() const {
  if (!timeline_.empty()) {
    return timeline_;
  }
  core::BootTimeline t;
  if (spec_.via_docker_daemon) {
    t.append(docker_daemon_timeline("containerd-shim"));
  }
  t.stage("runtime:invoke", DurationDist::lognormal(millis(14), 0.2));
  t.append(spec_.runtime_extra);
  t.stage("runtime:clone3", DurationDist::lognormal(millis(1.1), 0.2));
  t.append(spec_.namespaces.setup_timeline());
  Cgroup cg(spec_.cgroup_version, spec_.limits);
  t.append(cg.setup_timeline());
  t.append(storage_timeline());
  t.stage("runtime:pivot-root", DurationDist::lognormal(millis(0.9), 0.2));
  if (spec_.seccomp_filter) {
    t.stage("runtime:seccomp-load", DurationDist::lognormal(millis(2.2), 0.2));
  }
  t.stage("runtime:execve", DurationDist::lognormal(millis(3.4), 0.2));
  t.append(init_system_timeline(spec_.init));
  t.stage("runtime:reap-and-teardown", init_system_shutdown(spec_.init));
  timeline_ = std::move(t);
  return timeline_;
}

void ContainerRuntime::record_boot(sim::Rng& rng) {
  // HAP-visible setup path.
  host_->record(Syscall::kClone3, rng, 1);
  spec_.namespaces.record_setup(*host_, rng);
  Cgroup cg(spec_.cgroup_version, spec_.limits);
  cg.record_setup(*host_, rng);
  host_->record(Syscall::kMount, rng,
                spec_.storage == StorageDriver::kZfs ? 2 : 1);
  if (spec_.seccomp_filter) {
    host_->record(Syscall::kPrctl, rng, 1);
    host_->record(Syscall::kSeccompLoad, rng, 1);
  }
  host_->record(Syscall::kExecve, rng, 1);
  if (spec_.via_docker_daemon) {
    record_docker_daemon_rpc(*host_, rng);
  }
  // No duration is needed, but skipping the boot's draws keeps the
  // tenant's RNG stream where a full boot leaves it.
  boot_timeline().skip_total(rng);
}

core::BootTimeline docker_daemon_timeline(const std::string& shim) {
  core::BootTimeline t;
  t.stage("daemon:cli-to-dockerd", DurationDist::lognormal(millis(48), 0.18));
  t.stage("daemon:image-resolve", DurationDist::lognormal(millis(64), 0.20));
  t.stage("daemon:network-allocate", DurationDist::lognormal(millis(86), 0.18));
  t.stage("daemon:" + shim, DurationDist::lognormal(millis(52), 0.15));
  return t;
}

void record_docker_daemon_rpc(hostk::HostKernel& host, sim::Rng& rng) {
  host.record(Syscall::kSocket, rng, 1);
  host.record(Syscall::kConnect, rng, 1);
  host.record(Syscall::kSendmsg, rng, 4);
  host.record(Syscall::kRecvmsg, rng, 4);
}

// --- Catalog -----------------------------------------------------------

RuntimeSpec RuntimeCatalog::runc_oci() {
  return {.name = "runc-oci",
          .namespaces = NamespaceSet::runc_default(),
          .cgroup_version = CgroupVersion::kV1,
          .limits = {.cpu_shares = 1024.0, .memory_max = 8ull << 30,
                     .pids_max = 4096, .io_weight = {}},
          .storage = StorageDriver::kOverlay2,
          .init = InitKind::kTini,
          .seccomp_filter = true,
          .via_docker_daemon = false,
          .runtime_extra = {}};
}

RuntimeSpec RuntimeCatalog::docker_daemon() {
  RuntimeSpec s = runc_oci();
  s.name = "docker-daemon";
  s.via_docker_daemon = true;
  return s;
}

RuntimeSpec RuntimeCatalog::lxc() {
  core::BootTimeline lxc_extra;
  lxc_extra.stage("lxc:monitor-setup", DurationDist::lognormal(millis(24), 0.2));
  lxc_extra.stage("lxc:apparmor-profile",
                  DurationDist::lognormal(millis(16), 0.2));
  return {.name = "lxc",
          .namespaces = NamespaceSet::runc_default(),
          .cgroup_version = CgroupVersion::kV2,
          .limits = {.cpu_shares = 1024.0, .memory_max = 8ull << 30,
                     .pids_max = {}, .io_weight = {}},
          .storage = StorageDriver::kZfs,
          .init = InitKind::kSystemd,
          .seccomp_filter = true,
          .via_docker_daemon = false,
          .runtime_extra = lxc_extra};
}

RuntimeSpec RuntimeCatalog::lxc_unprivileged() {
  RuntimeSpec s = lxc();
  s.name = "lxc-unprivileged";
  s.namespaces = NamespaceSet::lxc_unprivileged();
  return s;
}

}  // namespace container
