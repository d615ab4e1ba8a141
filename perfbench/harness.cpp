// perfbench_harness — the native half of the repository benchmark.
//
//   perfbench_harness context
//   perfbench_harness prepare --profile mnist --train 3000 --test 500
//                             --dim 10000 --epochs 3 --seed 7 --out-dir DIR
//                             [--spans FILE]
//   perfbench_harness client  --port P --requests DIR/requests.bin
//                             --tenants a,b --conns 4 --rate R
//                             --warmup-s W --seconds T --seed S --out FILE
//                             [--feedback-every K --feedback-tenant 1
//                              --rotate 1] [--spans FILE]
//   perfbench_harness probe   --bundle DIR/model.lhdp
//                             --requests DIR/requests.bin --batches 1,12
//
// `prepare` is one set-up: it generates a synthetic profile from the seed,
// fits a LeHDC pipeline, saves the bundle, and labels the request pool
// offline through train::Model::predict_queries on the reloaded bundle.
// `client` is the open-loop load generator: Poisson arrivals from
// chaos::arrival_times, one thread, every connection multiplexed through
// one epoll set, and a timerfd armed at the next due send, so the thread
// sleeps until a send is due or a socket is readable. It speaks the v2
// wire protocol with its own encoder/decoder and checks every response.
// `probe` times Pipeline::evaluate at given batch sizes. Each prints one
// JSON object; run.py turns them into metrics.
//
// Only public surfaces that the serving rework keeps are used: the wire
// protocol, core::Pipeline, train::Model::predict_queries, the nn ops and
// chaos::arrival_times.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/arrival.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_io.hpp"
#include "data/profiles.hpp"
#include "data/synthetic.hpp"
#include "hdc/query_batch.hpp"
#include "hv/batch_score.hpp"
#include "nn/binarize.hpp"
#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace lehdc;

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ------------------------------------------------------------- arguments --

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::runtime_error(std::string("expected --flag, got ") +
                                 argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 != 0) {
      throw std::runtime_error("flags must come in --name value pairs");
    }
  }
  [[nodiscard]] std::string str(const std::string& name,
                                const std::string& fallback = "") const {
    const auto it = values_.find(name);
    if (it != values_.end()) {
      return it->second;
    }
    if (fallback.empty()) {
      throw std::runtime_error("missing --" + name);
    }
    return fallback;
  }
  [[nodiscard]] double num(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] double num(const std::string& name) const {
    return std::stod(str(name));
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

// ---------------------------------------------------------------- spans --

/// Spans kept in memory and written once at the end: name, start, end,
/// parent span and request id (-1 when none). Off when the path is "-".
class Spans {
 public:
  explicit Spans(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] bool on() const noexcept { return path_ != "-"; }

  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::int64_t request = -1) {
    if (!on()) {
      return -1;
    }
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Sets the end of a span opened with an unknown end.
  void finish(std::int64_t id, std::int64_t end_ns) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
    }
  }

  void write() const {
    if (!on()) {
      return;
    }
    std::ofstream out(path_, std::ios::trunc);
    out << "id,parent,request,name,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.parent << ',' << s.request << ',' << s.name << ','
          << s.start_ns << ',' << s.end_ns << '\n';
    }
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::int64_t request;
  };
  std::string path_;
  std::vector<Span> spans_;
};

/// Times fn() and records it as a span.
template <typename Fn>
double timed(Spans& spans, const char* name, std::int64_t parent, Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  const std::int64_t end = now_ns();
  spans.add(name, start, end, parent);
  return static_cast<double>(end - start) * 1e-9;
}

// --------------------------------------------------------- request pool --

/// The request pool shared by `prepare`, `client` and `probe`: the test
/// split's features, true labels and the offline labels of the saved
/// bundle. Layout: "PBRQ" u32 count u32 features u32 classes
/// | f32[count*features] | i32 true[count] | i32 expected[count].
struct Pool {
  std::uint32_t count = 0;
  std::uint32_t features = 0;
  std::uint32_t classes = 0;
  std::vector<float> x;
  std::vector<std::int32_t> truth;
  std::vector<std::int32_t> expected;

  [[nodiscard]] const float* row(std::size_t i) const {
    return x.data() + (i % count) * features;
  }
};

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
void read_vec(std::ifstream& in, std::vector<T>& v, std::size_t n) {
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
}

void save_pool(const Pool& pool, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("PBRQ", 4);
  for (std::uint32_t v : {pool.count, pool.features, pool.classes}) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  write_vec(out, pool.x);
  write_vec(out, pool.truth);
  write_vec(out, pool.expected);
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

Pool load_pool(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  in.read(magic, 4);
  if (!in || std::memcmp(magic, "PBRQ", 4) != 0) {
    throw std::runtime_error("not a request pool: " + path);
  }
  Pool pool;
  for (std::uint32_t* v : {&pool.count, &pool.features, &pool.classes}) {
    in.read(reinterpret_cast<char*>(v), sizeof(*v));
  }
  if (pool.count == 0 || pool.features == 0 || pool.count > (1u << 24) ||
      pool.features > (1u << 16)) {
    throw std::runtime_error("bad request pool header: " + path);
  }
  read_vec(in, pool.x, std::size_t{pool.count} * pool.features);
  read_vec(in, pool.truth, pool.count);
  read_vec(in, pool.expected, pool.count);
  if (!in) {
    throw std::runtime_error("truncated request pool: " + path);
  }
  return pool;
}

data::Dataset pool_slice(const Pool& pool, std::size_t begin,
                         std::size_t count) {
  data::Dataset out(pool.features, pool.classes);
  for (std::size_t i = begin; i < begin + count; ++i) {
    out.add_sample(std::span<const float>(pool.row(i), pool.features),
                   pool.truth[i % pool.count]);
  }
  return out;
}

// -------------------------------------------------------------- context --

int cmd_context() {
  std::printf(
      "{\"score_kernel\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}\n",
      hv::score_kernel_name(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  return 0;
}

// -------------------------------------------------------------- prepare --

struct NnTimes {
  double matmul_abt_ms = 0.0;
  double accumulate_gta_ms = 0.0;
  double adam_step_ms = 0.0;
  double small_ops_ms = 0.0;
};

/// Median of `reps` timed calls (after one untimed warm-up call), in ms.
template <typename Fn>
double median_ms(Spans& spans, const char* name, std::int64_t parent,
                 int reps, Fn&& fn) {
  fn();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    ms.push_back(timed(spans, name, parent, fn) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// The ops of one LeHDC training step at the trainer's own (B, K, D).
NnTimes time_nn_ops(std::size_t batch, std::size_t classes, std::size_t dim,
                    std::uint64_t seed, Spans& spans, std::int64_t parent) {
  util::Rng rng(seed);
  nn::Matrix x(batch, dim);
  nn::Matrix latent(classes, dim);
  nn::Matrix weights(classes, dim);
  nn::Matrix logits(batch, classes);
  nn::Matrix logit_grad(batch, classes);
  nn::Matrix weight_grad(classes, dim);
  x.fill_uniform(rng, -1.0f, 1.0f);
  latent.fill_gaussian(rng, 0.5f);
  std::vector<int> labels(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    labels[b] = static_cast<int>(b % classes);
  }
  nn::AdamConfig adam_config;
  adam_config.learning_rate = 0.01f;
  adam_config.weight_decay = 0.05f;
  nn::AdamOptimizer adam(classes, dim, adam_config);
  nn::binarize_to_float(latent, weights);
  nn::matmul_abt(x, weights, logits);
  (void)nn::softmax_xent_backward(logits, labels, logit_grad);

  constexpr int kReps = 7;
  NnTimes t;
  t.matmul_abt_ms = median_ms(spans, "nn.matmul_abt", parent, kReps,
                              [&] { nn::matmul_abt(x, weights, logits); });
  t.accumulate_gta_ms =
      median_ms(spans, "nn.accumulate_gta", parent, kReps,
                [&] { nn::accumulate_gta(logit_grad, x, weight_grad); });
  t.adam_step_ms = median_ms(spans, "nn.adam_step", parent, kReps,
                             [&] { adam.step(latent, weight_grad); });
  t.small_ops_ms = median_ms(spans, "nn.small_ops", parent, kReps, [&] {
    nn::binarize_to_float(latent, weights);
    (void)nn::softmax_xent_backward(logits, labels, logit_grad);
    nn::clip_latent(latent, 1.0f);
  });
  return t;
}

int cmd_prepare(const Args& args) {
  const std::string out_dir = args.str("out-dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  Spans spans(args.str("spans", "-"));
  const std::int64_t root = spans.add("setup.prepare", now_ns(), 0);

  data::TrainTestSplit split;
  const double data_s = timed(spans, "setup.data", root, [&] {
    data::SyntheticConfig config =
        data::profile_by_name(args.str("profile")).config;
    config.train_count = static_cast<std::size_t>(args.num("train"));
    config.test_count = static_cast<std::size_t>(args.num("test"));
    config.seed = seed;
    split = data::generate_synthetic(config);
  });

  core::PipelineConfig config;
  config.dim = static_cast<std::size_t>(args.num("dim"));
  config.seed = seed;
  config.strategy = core::Strategy::kLeHdc;
  config.lehdc.epochs = static_cast<std::size_t>(args.num("epochs"));
  core::Pipeline pipeline(config);
  core::FitReport report;
  const double fit_s = timed(spans, "core.Pipeline.fit", root, [&] {
    report = pipeline.fit(split.train, &split.test);
  });

  core::EvalResult eval;
  timed(spans, "core.Pipeline.evaluate", root,
        [&] { eval = pipeline.evaluate(split.test); });
  const std::string bundle = out_dir + "/model.lhdp";
  timed(spans, "core.save_pipeline", root,
        [&] { core::save_pipeline(pipeline, bundle); });

  // The request pool is labelled offline by the bundle the server loads.
  Pool pool;
  pool.count = static_cast<std::uint32_t>(split.test.size());
  pool.features = static_cast<std::uint32_t>(split.test.feature_count());
  pool.classes = static_cast<std::uint32_t>(split.test.class_count());
  pool.x.assign(split.test.rows(0, split.test.size()).begin(),
                split.test.rows(0, split.test.size()).end());
  pool.truth.assign(split.test.labels().begin(), split.test.labels().end());
  pool.expected.assign(pool.count, -1);
  timed(spans, "train.Model.predict_queries", root, [&] {
    const core::Pipeline loaded = core::load_pipeline(bundle);
    std::vector<int> labels(pool.count);
    loaded.model().predict_queries(
        hdc::QueryBatch(split.test, loaded.encoder()), labels);
    pool.expected.assign(labels.begin(), labels.end());
  });
  save_pool(pool, out_dir + "/requests.bin");

  // A traced set-up (one that records spans) also fits a second time with
  // an epoch observer, for per-epoch time and the observer's overhead
  // against the plain fit above, and times the nn ops.
  double observed_fit_s = 0.0;
  std::vector<double> epoch_s;
  NnTimes nn_times;
  if (spans.on()) {
    core::Pipeline observed(config);
    observed_fit_s = timed(spans, "core.Pipeline.fit.observed", root, [&] {
      (void)observed.fit(split.train, &split.test,
                         [&](const train::EpochEvent& event) {
                           epoch_s.push_back(event.epoch_seconds);
                         });
    });
    nn_times = time_nn_ops(config.lehdc.batch_size, pool.classes, config.dim,
                           seed, spans, root);
  }
  spans.finish(root, now_ns());
  spans.write();

  std::sort(epoch_s.begin(), epoch_s.end());
  const std::size_t steps_per_epoch =
      split.train.size() / config.lehdc.batch_size;
  std::printf(
      "{\"data_s\": %.9g, \"fit_s\": %.9g, "
      "\"fit_encode_s\": %.9g, \"fit_train_s\": %.9g, \"fit_eval_s\": %.9g, "
      "\"train_count\": %zu, \"epochs_run\": %zu, \"steps\": %zu, "
      "\"fit_test_accuracy\": %.17g, \"eval_accuracy\": %.17g, "
      "\"observed_fit_s\": %.9g, \"epoch_s\": %.9g, "
      "\"nn_matmul_abt_ms\": %.9g, \"nn_accumulate_gta_ms\": %.9g, "
      "\"nn_adam_step_ms\": %.9g, \"nn_small_ops_ms\": %.9g}\n",
      data_s, fit_s, report.timings.encode_seconds,
      report.timings.train_seconds, report.timings.eval_seconds,
      split.train.size(), report.epochs_run,
      report.epochs_run * steps_per_epoch, report.test_accuracy,
      eval.accuracy, observed_fit_s,
      epoch_s.empty() ? 0.0 : epoch_s[epoch_s.size() / 2],
      nn_times.matmul_abt_ms, nn_times.accumulate_gta_ms,
      nn_times.adam_step_ms, nn_times.small_ops_ms);
  return 0;
}

// ---------------------------------------------------------------- probe --

/// Each batch size is evaluated over the whole pool, repeated until at
/// least this much time has passed.
constexpr double kProbeMinSeconds = 0.3;

int cmd_probe(const Args& args) {
  const core::Pipeline pipeline = core::load_pipeline(args.str("bundle"));
  const Pool pool = load_pool(args.str("requests"));
  Spans spans(args.str("spans", "-"));
  std::string json = "{";
  for (const std::string& item : split_list(args.str("batches"))) {
    const auto batch = static_cast<std::size_t>(
        std::clamp(std::stoul(item), 1ul, static_cast<unsigned long>(
                                              pool.count)));
    std::vector<data::Dataset> batches;
    for (std::size_t b = 0; b + batch <= pool.count; b += batch) {
      batches.push_back(pool_slice(pool, b, batch));
    }
    double encode_s = 0.0;
    double score_s = 0.0;
    double bytes = 0.0;
    double samples = 0.0;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < batches.size() ||
                            (now_ns() - start) * 1e-9 < kProbeMinSeconds;
         ++i) {
      core::EvalResult r;
      timed(spans, "core.Pipeline.evaluate", -1,
            [&] { r = pipeline.evaluate(batches[i % batches.size()]); });
      encode_s += r.encode_seconds;
      score_s += r.score_seconds;
      bytes += static_cast<double>(r.encode_bytes);
      samples += static_cast<double>(r.samples);
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%zu\": {\"encode_us_per_sample\": %.9g, "
                  "\"encode_kb_per_sample\": %.9g, "
                  "\"score_us_per_sample\": %.9g}",
                  json.size() > 1 ? ", " : "", batch,
                  encode_s / samples * 1e6, bytes / samples / 1024.0,
                  score_s / samples * 1e6);
    json += entry;
  }
  spans.write();
  std::printf("%s}\n", json.c_str());
  return 0;
}

// --------------------------------------------------------------- client --

/// Little-endian appenders for the v2 wire frames (serve/protocol.hpp).
template <typename T>
void put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

void put_header(std::string& out, const char magic[4], std::size_t size) {
  out.append(magic, 4);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(size));
}

void encode_request(std::string& out, std::uint64_t id,
                    const std::string& tenant, const float* features,
                    std::uint32_t count) {
  put_header(out, "LSR2", 8 + 8 + 2 + tenant.size() + 4 + 4 * count);
  put<std::uint64_t>(out, id);
  put<std::uint64_t>(out, 0);  // no deadline
  put<std::uint16_t>(out, static_cast<std::uint16_t>(tenant.size()));
  out += tenant;
  put<std::uint32_t>(out, count);
  out.append(reinterpret_cast<const char*>(features), 4 * count);
}

void encode_feedback(std::string& out, std::uint64_t id,
                     const std::string& tenant, std::int32_t label) {
  put_header(out, "LSF2", 8 + 2 + tenant.size() + 4);
  put<std::uint64_t>(out, id);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(tenant.size()));
  out += tenant;
  put<std::int32_t>(out, label);
}

struct WireResponse {
  std::uint64_t id = 0;
  std::uint8_t status = 0;
  std::int32_t label = 0;
  std::uint32_t batch_size = 0;
  double latency_seconds = 0.0;
  std::string tenant;
};

/// Decodes one complete "LSS2" frame at `data` (header already checked
/// complete by the caller). Throws on a malformed frame.
WireResponse decode_response(const char* data, std::size_t size) {
  if (size < 8 + 27 || std::memcmp(data, "LSS2", 4) != 0) {
    throw std::runtime_error("bad response frame");
  }
  WireResponse r;
  const char* p = data + 8;
  std::memcpy(&r.id, p, 8);
  std::memcpy(&r.status, p + 8, 1);
  std::memcpy(&r.label, p + 9, 4);
  std::memcpy(&r.batch_size, p + 13, 4);
  std::memcpy(&r.latency_seconds, p + 17, 8);
  std::uint16_t tenant_length = 0;
  std::memcpy(&tenant_length, p + 25, 2);
  if (size != 8 + 27 + std::size_t{tenant_length}) {
    throw std::runtime_error("response tenant length disagrees with frame");
  }
  r.tenant.assign(p + 27, tenant_length);
  return r;
}

/// Per-request outcome codes written to the record file.
enum Check : int {
  kOk = 0,
  kRejected = 1,
  kWrongLabel = 2,
  kMisrouted = 3,
  kDuplicate = 4,
  kUnanswered = 5,
};

struct Request {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = -1;
  std::int64_t recv_ns = -1;
  std::int32_t label = -1;
  std::uint32_t batch = 0;
  double server_s = 0.0;
  int status = -1;
  int check = kUnanswered;
  int answers = 0;
  // Trace mode only: encode, receive and decode windows of this request.
  std::int64_t encode_start = 0;
  std::int64_t encode_end = 0;
  std::int64_t recv_start = 0;
  std::int64_t decode_start = 0;
};

struct Feedback {
  std::size_t request = 0;
  int conn = 0;
  std::int64_t sent_ns = -1;
  std::int64_t recv_ns = -1;
  int status = -1;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_offset = 0;
  bool want_write = false;
  std::string in;
  std::deque<std::size_t> pending_feedback;  // indices into feedbacks
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error("fcntl(O_NONBLOCK) failed");
  }
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed: " + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_nonblocking(fd);
  return fd;
}

class OpenLoopClient {
 public:
  explicit OpenLoopClient(const Args& args)
      : pool_(load_pool(args.str("requests"))),
        tenants_(split_list(args.str("tenants"))),
        feedback_every_(static_cast<std::size_t>(args.num("feedback-every", 0))),
        feedback_tenant_(static_cast<int>(args.num("feedback-tenant", -1))),
        rotate_(static_cast<int>(args.num("rotate", 0))),
        id_base_(static_cast<std::uint64_t>(args.num("id-base", 0))),
        drain_ns_(static_cast<std::int64_t>(args.num("drain-s", 2.0) * 1e9)),
        spans_(args.str("spans", "-")) {
    const auto conns = static_cast<std::size_t>(args.num("conns"));
    if (tenants_.empty() || conns == 0) {
      throw std::runtime_error("need at least one tenant and one connection");
    }
    chaos::ArrivalConfig arrivals;
    arrivals.process = chaos::ArrivalProcess::kUniform;
    arrivals.rate_per_sec = args.num("rate");
    warmup_ns_ = static_cast<std::int64_t>(args.num("warmup-s") * 1e9);
    arrivals.horizon_us = static_cast<std::uint64_t>(
        (args.num("warmup-s") + args.num("seconds")) * 1e6);
    arrivals.seed = static_cast<std::uint64_t>(args.num("seed"));
    for (const std::uint64_t us : chaos::arrival_times(arrivals)) {
      Request r;
      r.due_ns = static_cast<std::int64_t>(us) * 1000;
      requests_.push_back(r);
    }
    const int port = static_cast<int>(args.num("port"));
    for (std::size_t c = 0; c < conns; ++c) {
      Conn conn;
      conn.fd = connect_loopback(port);
      conns_.push_back(std::move(conn));
    }
  }

  ~OpenLoopClient() {
    for (const Conn& conn : conns_) {
      ::close(conn.fd);
    }
    if (timer_ >= 0) {
      ::close(timer_);
    }
    if (epoll_ >= 0) {
      ::close(epoll_);
    }
  }
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  // Request i goes to connection i % conns and, independently, to tenant
  // (i / conns) % tenants, so every connection carries every tenant.
  [[nodiscard]] int conn_of(std::size_t i) const {
    return static_cast<int>(i % conns_.size());
  }
  [[nodiscard]] int tenant_of(std::size_t i) const {
    return static_cast<int>((i / conns_.size()) % tenants_.size());
  }

  void run() {
    epoll_ = ::epoll_create1(0);
    timer_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
    if (epoll_ < 0 || timer_ < 0) {
      throw std::runtime_error("epoll/timerfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = kTimerTag;
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, timer_, &ev);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(c);
      ::epoll_ctl(epoll_, EPOLL_CTL_ADD, conns_[c].fd, &ev);
    }
    t0_ = now_ns() + 5'000'000;  // first arrival 5 ms from now
    std::size_t next = 0;
    std::int64_t last_sent = 0;
    arm(next);
    epoll_event events[64];
    for (;;) {
      const bool draining = next == requests_.size();
      if (draining && outstanding() == 0) {
        break;
      }
      int timeout_ms = -1;
      if (draining) {
        const std::int64_t left = last_sent + drain_ns_ - now_ns();
        if (left <= 0) {
          break;
        }
        timeout_ms = static_cast<int>(left / 1'000'000) + 1;
      }
      const int n = ::epoll_wait(epoll_, events, 64, timeout_ms);
      if (n < 0 && errno != EINTR) {
        throw std::runtime_error("epoll_wait failed");
      }
      for (int e = 0; e < n; ++e) {
        const std::uint32_t tag = events[e].data.u32;
        if (tag == kTimerTag) {
          std::uint64_t expirations = 0;
          (void)!::read(timer_, &expirations, sizeof(expirations));
          continue;
        }
        if ((events[e].events & EPOLLOUT) != 0) {
          flush(tag);
        }
        if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
          receive(tag);
        }
      }
      const std::int64_t now = now_ns();
      while (next < requests_.size() && t0_ + requests_[next].due_ns <= now) {
        send_request(next++);
      }
      if (next == requests_.size() && last_sent == 0) {
        last_sent = now_ns();
      }
      if (n > 0 || next < requests_.size()) {
        arm(next);
      }
    }
  }

  void report(const std::string& path) {
    std::ofstream out(path, std::ios::trunc);
    out << "kind,index,conn,tenant,due_us,sent_us,recv_us,status,label,"
           "batch,server_us,check,warmup\n";
    char line[256];
    std::size_t relabeled = 0;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const Request& r = requests_[i];
      const int tenant = tenant_of(i);
      if (tenant == feedback_tenant_ && r.check == kOk &&
          r.label != pool_.expected[i % pool_.count]) {
        ++relabeled;
      }
      std::snprintf(line, sizeof(line),
                    "r,%zu,%d,%d,%.3f,%.3f,%.3f,%d,%d,%u,%.3f,%d,%d\n", i,
                    conn_of(i), tenant, us(r.due_ns + t0_), us(r.sent_ns),
                    us(r.recv_ns), r.status, r.label, r.batch,
                    r.server_s * 1e6, r.check,
                    r.due_ns < warmup_ns_ ? 1 : 0);
      out << line;
      if (spans_.on() && r.recv_ns >= 0) {
        const std::int64_t root =
            spans_.add("client.request", r.due_ns + t0_, r.recv_ns, -1,
                       static_cast<std::int64_t>(i));
        spans_.add("client.encode", r.encode_start, r.encode_end, root,
                   static_cast<std::int64_t>(i));
        spans_.add("client.send", r.encode_end, r.sent_ns, root,
                   static_cast<std::int64_t>(i));
        spans_.add("client.receive", r.recv_start, r.decode_start, root,
                   static_cast<std::int64_t>(i));
        spans_.add("client.decode", r.decode_start, r.recv_ns, root,
                   static_cast<std::int64_t>(i));
      }
    }
    for (const Feedback& f : feedbacks_) {
      std::snprintf(line, sizeof(line), "f,%zu,%d,%d,,%.3f,%.3f,%d,,,,,\n",
                    f.request, f.conn, tenant_of(f.request), us(f.sent_ns),
                    us(f.recv_ns), f.status);
      out << line;
    }
    spans_.write();
    std::printf(
        "{\"requests\": %zu, \"feedback\": %zu, \"relabeled\": %zu, "
        "\"protocol_errors\": %zu}\n",
        requests_.size(), feedbacks_.size(), relabeled, protocol_errors_);
  }

 private:
  static constexpr std::uint32_t kTimerTag = 0xffffffffu;

  [[nodiscard]] double us(std::int64_t ns) const {
    return ns < 0 ? -1.0 : static_cast<double>(ns - t0_) * 1e-3;
  }

  [[nodiscard]] std::size_t outstanding() const {
    return unanswered_ + unacked_;
  }

  /// Arms the timerfd at the next due instant (absolute), or disarms it.
  void arm(std::size_t next) {
    itimerspec spec{};
    if (next < requests_.size()) {
      const std::int64_t at = t0_ + requests_[next].due_ns;
      spec.it_value.tv_sec = at / 1'000'000'000;
      spec.it_value.tv_nsec = at % 1'000'000'000;
    }
    ::timerfd_settime(timer_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  void send_request(std::size_t i) {
    Request& r = requests_[i];
    Conn& conn = conns_[conn_of(i)];
    r.encode_start = spans_.on() ? now_ns() : 0;
    encode_request(conn.out, id_base_ + i, tenants_[tenant_of(i)],
                   pool_.row(i), pool_.features);
    r.encode_end = spans_.on() ? now_ns() : 0;
    ++unanswered_;
    flush(conn_of(i));
    r.sent_ns = now_ns();
  }

  void send_feedback(std::size_t i, int c) {
    Conn& conn = conns_[c];
    const std::int32_t truth = pool_.truth[i % pool_.count];
    const auto label = static_cast<std::int32_t>(
        (truth + rotate_) % static_cast<std::int32_t>(pool_.classes));
    encode_feedback(conn.out, id_base_ + i, tenants_[tenant_of(i)], label);
    Feedback f;
    f.request = i;
    f.conn = c;
    f.sent_ns = now_ns();
    conn.pending_feedback.push_back(feedbacks_.size());
    feedbacks_.push_back(f);
    ++unacked_;
    flush(c);
  }

  void flush(std::uint32_t c) {
    Conn& conn = conns_[c];
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_offset,
                 conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          throw std::runtime_error("send failed");
        }
        break;
      }
      conn.out_offset += static_cast<std::size_t>(n);
    }
    if (conn.out_offset == conn.out.size()) {
      conn.out.clear();
      conn.out_offset = 0;
    }
    const bool want = !conn.out.empty();
    if (want != conn.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u32 = c;
      ::epoll_ctl(epoll_, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_write = want;
    }
  }

  void receive(std::uint32_t c) {
    Conn& conn = conns_[c];
    const std::int64_t recv_start = spans_.on() ? now_ns() : 0;
    char buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          ::epoll_ctl(epoll_, EPOLL_CTL_DEL, conn.fd, nullptr);
        }
        break;
      }
      conn.in.append(buffer, static_cast<std::size_t>(n));
    }
    std::size_t offset = 0;
    while (conn.in.size() - offset >= 8) {
      std::uint32_t size = 0;
      std::memcpy(&size, conn.in.data() + offset + 4, 4);
      if (size > (1u << 20)) {
        throw std::runtime_error("oversized response frame");
      }
      if (conn.in.size() - offset < 8 + std::size_t{size}) {
        break;
      }
      const std::int64_t decode_start = now_ns();
      WireResponse r;
      try {
        r = decode_response(conn.in.data() + offset, 8 + size);
      } catch (const std::exception&) {
        ++protocol_errors_;
        offset += 8 + size;
        continue;
      }
      offset += 8 + size;
      on_response(c, r, recv_start, decode_start);
    }
    conn.in.erase(0, offset);
  }

  void on_response(std::uint32_t c, const WireResponse& w,
                   std::int64_t recv_start, std::int64_t decode_start) {
    const std::int64_t now = now_ns();
    if (w.id < id_base_ || w.id - id_base_ >= requests_.size()) {
      ++protocol_errors_;
      return;
    }
    const std::size_t i = w.id - id_base_;
    Conn& conn = conns_[c];
    Request& r = requests_[i];
    // An ack for feedback on request i comes after i's own response, in
    // send order on the connection the feedback went out on.
    if (r.answers > 0 && !conn.pending_feedback.empty() &&
        feedbacks_[conn.pending_feedback.front()].request == i) {
      Feedback& f = feedbacks_[conn.pending_feedback.front()];
      conn.pending_feedback.pop_front();
      f.recv_ns = now;
      f.status = w.status;
      --unacked_;
      return;
    }
    if (++r.answers > 1) {
      r.check = kDuplicate;
      return;
    }
    --unanswered_;
    r.recv_ns = now;
    r.recv_start = recv_start;
    r.decode_start = decode_start;
    r.status = w.status;
    r.label = w.label;
    r.batch = w.batch_size;
    r.server_s = w.latency_seconds;
    const int tenant = tenant_of(i);
    if (w.status != 0) {
      r.check = kRejected;
    } else if (static_cast<int>(c) != conn_of(i) ||
               w.tenant != tenants_[tenant]) {
      r.check = kMisrouted;
    } else if (tenant == feedback_tenant_
                   ? (w.label < 0 ||
                      w.label >= static_cast<std::int32_t>(pool_.classes))
                   : w.label != pool_.expected[i % pool_.count]) {
      r.check = kWrongLabel;
    } else {
      r.check = kOk;
    }
    if (r.check == kOk && tenant == feedback_tenant_ && feedback_every_ > 0 &&
        ++feedback_tenant_responses_ % feedback_every_ == 0) {
      send_feedback(i, static_cast<int>(c));
    }
  }

  Pool pool_;
  std::vector<std::string> tenants_;
  std::size_t feedback_every_;
  int feedback_tenant_;
  int rotate_;
  std::uint64_t id_base_;
  std::int64_t drain_ns_;
  std::int64_t warmup_ns_ = 0;
  Spans spans_;
  std::vector<Request> requests_;
  std::vector<Feedback> feedbacks_;
  std::vector<Conn> conns_;
  int epoll_ = -1;
  int timer_ = -1;
  std::int64_t t0_ = 0;
  std::size_t unanswered_ = 0;
  std::size_t unacked_ = 0;
  std::size_t feedback_tenant_responses_ = 0;
  std::size_t protocol_errors_ = 0;
};

int cmd_client(const Args& args) {
  OpenLoopClient client(args);
  client.run();
  client.report(args.str("out"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_harness <context|prepare|client|probe> "
                 "[--flag value ...]\n");
    return 2;
  }
  try {
    const std::string command = argv[1];
    const Args args(argc, argv);
    if (command == "context") {
      return cmd_context();
    }
    if (command == "prepare") {
      return cmd_prepare(args);
    }
    if (command == "client") {
      return cmd_client(args);
    }
    if (command == "probe") {
      return cmd_probe(args);
    }
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 1;
  }
}
