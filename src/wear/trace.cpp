#include "wear/trace.hpp"

#include "util/check.hpp"

namespace rota::wear {

TracingPolicy::TracingPolicy(std::unique_ptr<Policy> inner)
    : Policy(inner ? inner->width() : 1, inner ? inner->height() : 1),
      inner_(std::move(inner)) {
  ROTA_REQUIRE(inner_ != nullptr, "tracing policy needs an inner policy");
}

std::string TracingPolicy::name() const {
  return inner_->name() + "+trace";
}

PolicyKind TracingPolicy::kind() const { return inner_->kind(); }

bool TracingPolicy::requires_torus() const {
  return inner_->requires_torus();
}

void TracingPolicy::begin_layer(const sched::UtilSpace& space) {
  ++layer_counter_;
  inner_->begin_layer(space);
}

Placement TracingPolicy::next_origin(const sched::UtilSpace& space) {
  const Placement at = inner_->next_origin(space);
  TraceRecord rec;
  rec.tile_index = tile_counter_++;
  rec.layer_index = layer_counter_ < 0 ? 0 : layer_counter_;
  rec.x = space.x;
  rec.y = space.y;
  rec.u = at.u;
  rec.v = at.v;
  records_.push_back(rec);
  return at;
}

void TracingPolicy::reset() {
  inner_->reset();
  records_.clear();
  tile_counter_ = 0;
  layer_counter_ = -1;
}

std::vector<std::uint64_t> TracingPolicy::pack_state() const {
  return inner_->pack_state();
}

void TracingPolicy::unpack_state(const std::vector<std::uint64_t>& state) {
  inner_->unpack_state(state);
}

std::unique_ptr<Policy> TracingPolicy::clone() const {
  auto copy = std::make_unique<TracingPolicy>(inner_->clone());
  copy->records_ = records_;
  copy->tile_counter_ = tile_counter_;
  copy->layer_counter_ = layer_counter_;
  return copy;
}

void write_trace_csv(const std::vector<TraceRecord>& records,
                     std::ostream& out) {
  out << "tile,layer,x,y,u,v\n";
  for (const TraceRecord& r : records) {
    out << r.tile_index << ',' << r.layer_index << ',' << r.x << ',' << r.y
        << ',' << r.u << ',' << r.v << '\n';
  }
}

}  // namespace rota::wear
