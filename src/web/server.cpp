#include "web/server.h"

#include <algorithm>
#include <stdexcept>

namespace gf::web {

const char* server_state_name(ServerState s) noexcept {
  switch (s) {
    case ServerState::kStopped: return "stopped";
    case ServerState::kRunning: return "running";
    case ServerState::kCrashed: return "crashed";
    case ServerState::kHung: return "hung";
    case ServerState::kSpinning: return "spinning";
  }
  return "?";
}

bool append_body(const os::OsApi& api, std::uint64_t addr, std::size_t n,
                 std::vector<std::uint8_t>& body) {
  const auto bytes = api.guest_bytes(addr, n);
  if (!bytes) return false;
  const auto room = kMaxBody + 1 - std::min(body.size(), kMaxBody + 1);
  const auto take = std::min(bytes->size(), room);
  body.insert(body.end(), bytes->begin(), bytes->begin() + take);
  return true;
}

bool WebServer::start() {
  stats_ = {};
  state_ = ServerState::kStopped;
  try {
    if (!do_start()) return false;
  } catch (const ApiHang&) {
    return false;
  } catch (const ServerDeath&) {
    return false;
  } catch (const ServerSpin&) {
    return false;
  }
  state_ = ServerState::kRunning;
  return true;
}

void WebServer::stop() {
  if (state_ != ServerState::kStopped) {
    try {
      do_stop();
    } catch (const ApiHang&) {
      // Shutdown is best effort; a hung teardown call is abandoned.
    } catch (const ServerDeath&) {
    } catch (const ServerSpin&) {
    }
  }
  state_ = ServerState::kStopped;
}

Response WebServer::handle(const Request& req) {
  if (state_ != ServerState::kRunning) {
    return Response{503, {}};
  }
  ++stats_.requests;
  const auto cycles_before = api_.total_cycles();
  Response resp{500, {}};
  try {
    resp = do_handle(req);
  } catch (const ApiHang&) {
    state_ = ServerState::kHung;
    resp = Response{0, {}};  // never answered
  } catch (const ServerDeath&) {
    state_ = ServerState::kCrashed;
    ++stats_.crashes;
    resp = Response{0, {}};
  } catch (const ServerSpin&) {
    state_ = ServerState::kSpinning;
    resp = Response{0, {}};
  }
  last_cycles_ = api_.total_cycles() - cycles_before;
  if (resp.status == 200) {
    ++stats_.ok;
  } else {
    ++stats_.errors;
  }
  return resp;
}

ProcessImage WebServer::save_process() const {
  ProcessImage img;
  img.state = state_;
  img.stats = stats_;
  img.last_cycles = last_cycles_;
  do_save_state(img.words);
  do_save_blobs(img.blobs);
  return img;
}

void WebServer::restore_process(const ProcessImage& img) {
  state_ = img.state;
  stats_ = img.stats;
  last_cycles_ = img.last_cycles;
  WordReader in(img.words);
  do_restore_state(in);
  do_restore_blobs(img.blobs);
}

bool WebServer::try_self_restart() {
  if (!has_self_restart()) return false;
  const auto saved = stats_;
  stop();
  const bool up = start();
  stats_ = saved;  // restarting does not erase history
  if (up) ++stats_.self_restarts;
  return up;
}

}  // namespace gf::web
