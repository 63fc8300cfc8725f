#include "snapshot/warmboot.h"

#include <stdexcept>

#include "spec/client.h"

namespace gf::snapshot {

Sub bring_up(os::OsVersion version, const std::string& server_name) {
  Sub sub;
  sub.kernel = std::make_unique<os::Kernel>(version);
  sub.api = std::make_unique<os::OsApi>(*sub.kernel);
  sub.fileset = std::make_unique<spec::Fileset>(sub.kernel->disk());
  sub.server = web::make_server(server_name, *sub.api);
  sub.kernel->reboot();
  if (!sub.server->start()) {
    throw std::runtime_error("server failed to start on a healthy OS");
  }
  // Bring-up ends with the server *warmed*, not merely started: every run —
  // baseline, profile, or a single-fault exposure — measures a SUB in its
  // steady serving state, the state the paper's long sequential slots put
  // it in before most injections.
  spec::warm_server(*sub.server, *sub.fileset);
  return sub;
}

Sub restore(const WarmSnapshot& snap) {
  Sub sub;
  sub.kernel = std::make_unique<os::Kernel>(snap.kernel);
  sub.api = std::make_unique<os::OsApi>(*sub.kernel);
  sub.fileset = std::make_unique<spec::Fileset>(
      sub.kernel->disk(), snap.fileset, /*populate=*/false);
  sub.server = web::make_server(snap.server_name, *sub.api);
  sub.server->restore_process(snap.server);
  return sub;
}

std::shared_ptr<const WarmSnapshot> capture_warm_boot(
    os::OsVersion version, const std::string& server_name) {
  auto sub = bring_up(version, server_name);
  auto snap = std::make_shared<WarmSnapshot>();
  snap->kernel = sub.kernel->snapshot();
  snap->server = sub.server->save_process();
  snap->server_name = server_name;
  snap->capture_cycles = sub.kernel->machine().total_cycles();
  return snap;
}

}  // namespace gf::snapshot
