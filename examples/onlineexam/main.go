// Onlineexam runs the whole §5 delivery architecture in one process, now
// entirely through the versioned /v1 HTTP API and the typed Go SDK
// (pkg/client): it authors a bank over HTTP (the paper's authoring system —
// problems created and the exam assembled from a blueprint, no CLI), mounts
// the SCORM package, drives a class of learners through the exam (with one
// pause/resume and manual essay grades), pulls the monitor snapshots, the
// server metrics, and the exported results, and analyzes them.
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"mineassess/internal/analysis"
	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/delivery"
	"mineassess/internal/httpapi"
	"mineassess/internal/item"
	"mineassess/internal/report"
	"mineassess/internal/scorm"
	"mineassess/pkg/client"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The bank is the production arrangement: a sharded store wrapped in a
	// write-ahead journal, so every authoring call below is appended to the
	// WAL and would survive a crash.
	dir, err := os.MkdirTemp("", "onlineexam-journal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := bank.OpenJournal(dir, bank.NewSharded(0), bank.JournalOptions{})
	if err != nil {
		return err
	}
	defer store.Close()

	// Start the LMS: engine + /v1 API with access logging off (the demo
	// prints its own narrative) and a generous per-learner rate limit.
	engine := delivery.NewEngine(store, nil, 16)
	handler := httpapi.NewServer(engine, store, httpapi.Options{
		RatePerSec: 500, Burst: 500,
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()
	fmt.Printf("LMS serving /v1 at %s\n", srv.URL)

	// Author the exam over HTTP: 5 MC questions + 1 essay, all resumable,
	// then assemble the exam from a blueprint instead of listing IDs.
	author := client.New(srv.URL, client.WithLearnerID("instructor"))
	for i := 1; i <= 5; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%d", i),
			fmt.Sprintf("Online question %d", i),
			[]string{"right", "wrong", "also wrong", "nope"}, 0)
		if err != nil {
			return err
		}
		p.ConceptID = "web-delivery"
		p.Level = cognition.Levels()[i%3]
		p.Resumable = true
		if err := author.CreateProblem(p); err != nil {
			return err
		}
	}
	essay := &item.Problem{ID: "essay", Style: item.Essay,
		Question:  "Why does assessment close the learning cycle?",
		ConceptID: "web-delivery",
		Level:     cognition.Evaluation, Resumable: true}
	if err := author.CreateProblem(essay); err != nil {
		return err
	}
	rec, err := author.AssembleExam(httpapi.AssembleExamRequest{
		ID: "online", Title: "Online exam",
		Require: []httpapi.BlueprintCell{
			{ConceptID: "web-delivery", Level: cognition.Knowledge, Count: 1},
			{ConceptID: "web-delivery", Level: cognition.Comprehension, Count: 2},
			{ConceptID: "web-delivery", Level: cognition.Application, Count: 2},
			{ConceptID: "web-delivery", Level: cognition.Evaluation, Count: 1},
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("assembled exam %q with %d problems over HTTP\n", rec.ID, len(rec.ProblemIDs))

	// Mount the SCORM package so SCO content loads straight from the LMS.
	problems, err := store.Problems(rec.ProblemIDs)
	if err != nil {
		return err
	}
	pkg, err := scorm.BuildPackage(rec, problems)
	if err != nil {
		return err
	}
	handler.MountPackage(pkg)
	fmt.Printf("mounted %d-file SCORM package under /package/\n", len(pkg.Files))

	// Eight learners: learner i answers the first i questions correctly.
	var firstSession string
	for i := 0; i < 8; i++ {
		learner := client.New(srv.URL,
			client.WithLearnerID(fmt.Sprintf("learner%02d", i)))
		started, err := learner.StartSession("online", fmt.Sprintf("learner%02d", i), int64(i))
		if err != nil {
			return err
		}
		if firstSession == "" {
			firstSession = started.SessionID
			// Demonstrate pause/resume on the first learner.
			if err := learner.Pause(started.SessionID); err != nil {
				return err
			}
			if err := learner.Resume(started.SessionID); err != nil {
				return err
			}
		}
		for qi, pid := range started.Order {
			response := "B"
			if pid == "essay" {
				response = "Assessment reveals what teaching missed."
			} else if qi < i {
				response = "A"
			}
			if err := learner.Answer(started.SessionID, pid, response); err != nil {
				return err
			}
		}
		if _, err := learner.Finish(started.SessionID); err != nil {
			return err
		}
	}

	// Instructor grades every pending essay over the admin API.
	pending, err := author.PendingGrades("online")
	if err != nil {
		return err
	}
	fmt.Printf("%d essays awaiting manual grades\n", len(pending))
	for _, pg := range pending {
		if err := author.AssignGrade(pg.SessionID, pg.ProblemID, 1.0); err != nil {
			return err
		}
	}

	// Monitor evidence for the first learner, plus the server's own view of
	// the traffic it just served.
	snaps, err := author.Monitor(firstSession)
	if err != nil {
		return err
	}
	fmt.Printf("monitor captured %d snapshots of %s\n", len(snaps), firstSession)
	metrics, err := author.Metrics()
	if err != nil {
		return err
	}
	fmt.Printf("server handled %d requests (%d rate-limited, %d 5xx)\n",
		metrics.Requests, metrics.RateLimited, metrics.Errors5xx)

	// Export the results and analyze.
	res, err := author.Results("online")
	if err != nil {
		return err
	}
	a, err := analysis.Analyze(res, analysis.Options{})
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(report.SignalBoard(a))
	return nil
}
