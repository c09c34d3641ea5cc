#include "cluster/stem_server.h"

#include <algorithm>

namespace feisu {

StemServer::StemServer(uint32_t node_id, NetworkModel network,
                       SimTime cpu_per_row_merge)
    : node_id_(node_id),
      network_(network),
      cpu_per_row_merge_(cpu_per_row_merge) {}

StemResult ChargeStemMerge(const std::vector<StemInput>& children,
                           const NetworkModel& network,
                           SimTime cpu_per_row_merge) {
  StemResult result;
  SimTime ready = 0;
  SimTime first_arrival = 0;
  uint64_t rows = 0;
  for (size_t i = 0; i < children.size(); ++i) {
    result.bytes_received += children[i].bytes;
    // Each child's partial result travels on the read data flow.
    SimTime arrival = children[i].finish_time +
                      network.Transfer(children[i].bytes, TrafficClass::kRead);
    ready = std::max(ready, arrival);
    if (i == 0 || arrival < first_arrival) first_arrival = arrival;
    rows += children[i].rows;
  }
  SimTime combine = static_cast<SimTime>(rows) * cpu_per_row_merge;
  result.start_time = first_arrival;
  result.finish_time = ready + combine;
  return result;
}

Result<StemResult> StemServer::Merge(
    const std::vector<RecordBatch>& child_batches,
    const std::vector<SimTime>& child_finish_times, Aggregator* aggregator) {
  std::vector<StemInput> inputs(child_batches.size());
  for (size_t i = 0; i < child_batches.size(); ++i) {
    inputs[i].bytes = child_batches[i].ByteSize();
    inputs[i].rows = child_batches[i].num_rows();
    inputs[i].finish_time =
        i < child_finish_times.size() ? child_finish_times[i] : 0;
  }
  StemResult result = ChargeStemMerge(inputs, network_, cpu_per_row_merge_);

  if (aggregator != nullptr) {
    for (const auto& batch : child_batches) {
      FEISU_RETURN_IF_ERROR(aggregator->ConsumePartial(batch));
    }
    FEISU_ASSIGN_OR_RETURN(result.batch, aggregator->PartialResult());
    return result;
  }
  // Row concatenation for non-aggregate sub-plans.
  if (child_batches.empty()) return result;
  RecordBatch merged(child_batches[0].schema());
  size_t rows = 0;
  for (const StemInput& input : inputs) rows += input.rows;
  merged.Reserve(rows);
  for (const auto& batch : child_batches) {
    FEISU_RETURN_IF_ERROR(merged.Append(batch));
  }
  result.batch = std::move(merged);
  return result;
}

}  // namespace feisu
