#include "app/file_transfer.h"

#include <algorithm>

namespace bytecache::app {

FileTransfer::FileTransfer(sim::Simulator& sim, tcp::TcpSender& sender,
                           tcp::TcpReceiver& receiver, util::Bytes file,
                           sim::SimTime request_delay, sim::SimTime give_up)
    : sim_(sim),
      sender_(sender),
      receiver_(receiver),
      file_(std::move(file)),
      request_delay_(request_delay),
      give_up_(give_up) {}

FileTransfer::FileTransfer(sim::Simulator& sim, Pipeline& pipeline,
                           util::Bytes file, sim::SimTime give_up)
    : FileTransfer(sim, pipeline.sender(), pipeline.receiver(),
                   std::move(file),
                   pipeline.config().reverse_link.propagation_delay,
                   give_up) {}

void FileTransfer::start() {
  started_ = true;
  start_time_ = sim_.now();
  result_.file_size = file_.size();

  receiver_.set_on_progress([this](std::uint64_t delivered) {
    if (!done_ && delivered >= file_.size()) finalize(/*completed=*/true);
  });
  sender_.set_on_abort([this](std::uint64_t) {
    if (!done_) finalize(/*completed=*/false);
  });
  sim_.after(give_up_, [this]() {
    if (!done_) finalize(/*completed=*/false);
  });

  // The client's request costs half an RTT before the server starts.
  sim_.after(request_delay_, [this]() { sender_.start(file_); });
}

void FileTransfer::finalize(bool completed) {
  done_ = true;
  finish_time_ = sim_.now();
  result_.completed = completed;
  result_.stalled = !completed;
  result_.duration_s = sim::to_seconds(finish_time_ - start_time_);
  const auto& stream = receiver_.stream();
  result_.delivered_bytes = stream.size();
  const std::size_t n = std::min(stream.size(), file_.size());
  result_.verified =
      stream.size() <= file_.size() &&
      std::equal(stream.begin(), stream.begin() + n, file_.begin());
}

void FileTransfer::run_to_completion() {
  if (!started_) start();
  while (!done_ && sim_.step()) {
  }
}

}  // namespace bytecache::app
