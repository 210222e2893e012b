#ifndef TENDAX_TESTS_SERVER_FIXTURE_H_
#define TENDAX_TESTS_SERVER_FIXTURE_H_

#include <gtest/gtest.h>

#include <memory>

#include "core/tendax.h"

namespace tendax {

/// Opens an in-memory TeNDaX server with a deterministic manual clock and
/// two users (alice, bob) for module tests above the storage layer. The
/// storage outlives the server, so a test can restart it with Reopen.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<ManualClock>(/*start=*/1'000'000'000,
                                           /*tick=*/1000);
    ASSERT_NO_FATAL_FAILURE(OpenServer());

    auto alice = server_->accounts()->CreateUser("alice");
    auto bob = server_->accounts()->CreateUser("bob");
    ASSERT_TRUE(alice.ok());
    ASSERT_TRUE(bob.ok());
    alice_ = *alice;
    bob_ = *bob;
  }

  /// Restarts the server over the same storage: a clean close, or a crash
  /// that drops every unflushed page first.
  void Reopen(bool crash) {
    if (crash) server_->db()->SimulateCrash();
    server_.reset();
    ASSERT_NO_FATAL_FAILURE(OpenServer());
  }

  /// Creates a document owned by `user` with `content` typed into it.
  DocumentId MakeDoc(UserId user, const std::string& name,
                     const std::string& content) {
    auto doc = server_->text()->CreateDocument(user, name);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    if (!content.empty()) {
      auto r = server_->text()->InsertText(user, *doc, 0, content);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    return *doc;
  }

  void OpenServer() {
    TendaxOptions options;
    options.db.clock = clock_;
    options.db.disk = disk_;
    options.db.log_storage = log_;
    options.db.buffer_pool_pages = 1024;
    auto server = TendaxServer::Open(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  std::shared_ptr<ManualClock> clock_;
  // In memory, and kept here so that Reopen finds the same pages and log.
  std::shared_ptr<InMemoryDiskManager> disk_ =
      std::make_shared<InMemoryDiskManager>();
  std::shared_ptr<InMemoryLogStorage> log_ =
      std::make_shared<InMemoryLogStorage>();
  std::unique_ptr<TendaxServer> server_;
  UserId alice_;
  UserId bob_;
};

}  // namespace tendax

#endif  // TENDAX_TESTS_SERVER_FIXTURE_H_
